"""The training loop's epoch records: one averaging rule for every stat."""
import numpy as np
import pytest

from quarts import tensor as T
from quarts.config import desk_profile
from quarts.data import Example
from quarts.rng import RunRng
from quarts.tensor import Tensor
from quarts.train import fit

# five examples at batch size 2 make batches of 2, 2 and 1 rows
EXAMPLES = [Example([4, 5], [6], i % 2) for i in range(5)]
DRAWS = [[1, 0], [0, 0], [1]]     # per-row draws, one list per batch
SCALARS = [1.0, 2.0, 6.0]         # one value per batch


def stub_fit(epochs: int, epoch_fields):
    """``fit`` on one weight with a loss that reports ``DRAWS`` and
    ``SCALARS`` in batch order, every epoch."""
    w = Tensor(np.zeros(1))
    reported = []

    def loss(batch, epoch):
        i = len(reported) % len(DRAWS)
        assert len(batch.labels) == len(DRAWS[i])
        reported.append(i)
        return T.scale(T.mean_all(w), 0.0), {"s1_fraction": np.array(DRAWS[i]), "scalar": SCALARS[i]}
    return fit({"w": w}, loss, EXAMPLES, desk_profile(batch_size=2), 1e-3,
               RunRng(0, "classifier"), epochs, "stub", epoch_fields)


def test_stats_average_over_every_reported_value():
    records = stub_fit(2, lambda epoch: {"split": "stub", "epoch_sq": epoch * epoch})
    # the epoch, the phase's fields, the loss, then the stats in the order reported
    assert [list(r.to_json().items()) for r in records] == [
        [("epoch", e), ("split", "stub"), ("epoch_sq", e * e), ("loss", 0.0),
         # the share of ones over all five draws, not the mean of the batch shares (0.5)
         ("s1_fraction", 0.4),
         # the mean of the per-batch values, not weighted by rows (2.4)
         ("scalar", 3.0)]
        for e in range(2)]


@pytest.mark.parametrize("name", ["s1_fraction", "loss"])
def test_field_colliding_with_a_stat_raises(name):
    with pytest.raises(TypeError, match=repr(name)):
        stub_fit(1, lambda epoch: {name: 0.0})

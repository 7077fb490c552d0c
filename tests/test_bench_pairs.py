"""The pair-run tool's summary, on synthetic numbers (no benchmark run)."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
SPEC = {"end_to_end": [{"name": "ex_per_s", "better": "higher", "bound": 0.25},
                       {"name": "rss_mb", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "step_ms", "better": "lower"}]}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(metric: str, parent: list[float], change: list[float]) -> list:
    """Pairs in the tool's order: the parent first in even pairs."""
    return [({metric: p}, {metric: c}, i % 2 == 0)
            for i, (p, c) in enumerate(zip(parent, change))]


def test_quartiles_ratio_wins_and_order_split(tool):
    # ten pairs; the change wins nine, loses the last, and ties none
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [110, 112, 108, 111, 109, 110, 113, 107, 111, 90]
    (row,) = tool.summarize(runs("ex_per_s", parent, change), SPEC)
    assert row["pairs"] == 10
    assert row["parent"] == (99.25, 100.0, 100.75)
    assert row["change"] == (108.25, 110.0, 111.0)
    assert row["ratio"] == 1.1
    assert (row["wins"], row["losses"]) == (9, 1)
    assert row["beyond_parent_iqr"] and row["verdict"] == "gain"
    assert row["by_order"] == {"parent_first": (100.0, 110.0),
                               "change_first": (100.0, 110.0)}


def test_a_tie_counts_for_neither_side(tool):
    (row,) = tool.summarize(runs("ex_per_s", [100, 100, 100], [100, 101, 99]), SPEC)
    assert (row["wins"], row["losses"]) == (1, 1)
    assert row["verdict"] == "within bound"


def test_nine_tenths_of_the_pairs_are_needed_for_a_gain(tool):
    # eight wins of ten, by far more than the parent's spread: not a gain
    parent = [100] * 10
    change = [120] * 8 + [90, 90]
    (row,) = tool.summarize(runs("ex_per_s", parent, change), SPEC)
    assert (row["wins"], row["losses"], row["verdict"]) == (8, 2, "within bound")


def test_lower_is_better_and_the_bound_marks_a_regression(tool):
    (row,) = tool.summarize(runs("rss_mb", [100, 100, 100, 100], [112, 111, 113, 112]),
                            SPEC)
    assert (row["wins"], row["losses"]) == (0, 4)
    assert row["verdict"] == "regression"
    (row,) = tool.summarize(runs("rss_mb", [100, 100, 100, 100], [105, 104, 106, 105]),
                            SPEC)
    assert row["verdict"] == "within bound"


def test_spread_wider_than_the_bound_is_unresolved(tool):
    parent = [100, 60, 140, 100, 70, 130]
    (row,) = tool.summarize(runs("ex_per_s", parent, [95, 65, 135, 95, 75, 125]), SPEC)
    assert row["verdict"] == "unresolved"
    (row,) = tool.summarize(runs("ex_per_s", parent, [150, 141, 160, 145, 142, 30]), SPEC)
    assert (row["wins"], row["verdict"]) == (5, "unresolved")
    # unless every change run reads better than every parent run
    parent = [60, 90, 100, 60, 90, 100]
    (row,) = tool.summarize(runs("ex_per_s", parent, [101] * 6), SPEC)
    assert not row["beyond_parent_iqr"] and row["verdict"] == "within bound"


def test_per_layer_and_undeclared_metrics(tool):
    (row,) = tool.summarize(runs("step_ms", [10, 10, 10], [11, 11, 11]), SPEC)
    assert (row["wins"], row["losses"], row["verdict"]) == (0, 3, "no gain")
    (row,) = tool.summarize(runs("val_aupr", [0.5, 0.5], [0.6, 0.6]), SPEC)
    assert (row["wins"], row["verdict"]) == (None, "-")
    assert "val_aupr" in tool.format_rows([row])


def test_env_line_gives_each_trees_src_lines(tool):
    lines = ["env " + json.dumps({"workload": "infer", "seed": 0, "src_lines": 3761}),
             "  eval_pairs_per_s  5000 pairs/s",
             "info " + json.dumps({"ckpt_sha": {"e2e": "ab12"}}),
             json.dumps({"correct": True, "metrics": {}})]
    env = tool.tagged(lines, "env")
    assert env == {"workload": "infer", "seed": 0, "src_lines": 3761}
    assert tool.tagged(lines, "info") == {"ckpt_sha": {"e2e": "ab12"}}
    assert tool.tagged(lines, "trace") == {}
    assert tool.src_lines([env, env]) == "3761"
    assert tool.src_lines([env, {**env, "src_lines": 3765}]) == "3761/3765"


def test_src_lines_per_file_of_two_trees(tool, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    files = {parent: {"cli.py": "a\nb\nc\n", "ved.py": "x\n", "gone.py": "y\ny\n"},
             change: {"cli.py": "a\n", "ved.py": "x\n", "new.py": "z\n"}}
    for tree, texts in files.items():
        (tree / "src" / "quarts").mkdir(parents=True)
        for name, text in texts.items():
            (tree / "src" / "quarts" / name).write_text(text)
    (parent / "src" / "quarts" / "notes.txt").write_text("not counted\n")
    counts = [tool.file_lines(tree) for tree in (parent, change)]
    assert counts == [{"cli.py": 3, "gone.py": 2, "ved.py": 1},
                      {"cli.py": 1, "new.py": 1, "ved.py": 1}]
    lines = tool.format_file_lines(*counts).splitlines()
    # only the files that differ, a missing file as 0, then both totals
    assert [line.split() for line in lines[1:]] == [
        ["cli.py", "3", "->", "1"], ["gone.py", "2", "->", "0"], ["new.py", "0", "->", "1"],
        ["total", "6", "->", "3"]]


def test_digests_are_compared_key_by_key(tool):
    parent = {"ckpt_sha": {"clf": "c1", "ved": "v1", "e2e": "e1", "scores": "s1"}}
    infos = [(parent, {"ckpt_sha": {"clf": "c1", "ved": "v1", "e2e": "e2", "scores": "s2"}}),
             (parent, {"ckpt_sha": {"clf": "c1", "ved": "v1", "e2e": "e1", "scores": "s3"}}),
             # a key one side lacks, or a record without digests, is not equal
             (parent, {"ckpt_sha": {"clf": "c1", "e2e": "e2", "scores": "s1"}}),
             ({}, {"ckpt_sha": {"clf": "c1"}})]
    agree = tool.digest_agreement(infos)
    assert agree == {"clf": 3, "ved": 2, "e2e": 1, "scores": 1}
    assert list(agree) == ["clf", "ved", "e2e", "scores"]   # in the order first seen
    assert tool.digest_agreement([]) == {}


INFO = {"per_round": {"eval_pairs_per_s": [5000.0, 5100.0],
                      "gen_beam4_pairs_per_s": [300.0, 100.0, 200.0],
                      "gen_beam1_pairs_per_s": [10.0, 40.0, 20.0, 30.0]},
        "ckpt_sha": {"generations": "g1"}}


def test_generation_rates_are_each_runs_median_round(tool):
    assert tool.round_rates(INFO) == {"gen_beam4_pairs_per_s": 200.0,
                                      "gen_beam1_pairs_per_s": 25.0}
    assert tool.round_rates({}) == {} == tool.round_rates({"per_round": {}})


def test_run_once_adds_the_generation_rates(tool, tmp_path):
    # a stand-in perfbench that prints a run's env, info and result lines
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        f"print('env ' + json.dumps({{'src_lines': 3791}}))\n"
        f"print('info ' + json.dumps({INFO!r}))\n"
        "print(json.dumps({'correct': True, 'metrics': "
        "{'eval_pairs_per_s': {'value': 5050.0}}}))\n")
    metrics, info, env = tool.run_once(tmp_path, "infer", 0, 1.0)
    assert metrics == {"eval_pairs_per_s": 5050.0, "gen_beam4_pairs_per_s": 200.0,
                       "gen_beam1_pairs_per_s": 25.0}
    assert info == INFO and env == {"src_lines": 3791}


def test_generation_rates_get_per_layer_verdicts(tool):
    spec = {**SPEC, "per_layer": [{"name": "gen_beam4_pairs_per_s", "better": "higher"}]}
    (row,) = tool.summarize(runs("gen_beam4_pairs_per_s", [200] * 10, [400] * 10), spec)
    assert (row["wins"], row["verdict"], row["bound"]) == (10, "gain", None)
    # a rate that halves is no regression: it has no bound to cross
    (row,) = tool.summarize(runs("gen_beam4_pairs_per_s", [200] * 10, [100] * 10), spec)
    assert (row["losses"], row["verdict"]) == (10, "no gain")

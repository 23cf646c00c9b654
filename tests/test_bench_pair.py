"""scripts/bench_pair.py's writer, driven on a fake pair of sides."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

SPEC = {"workloads": [{"name": "fast"}, {"name": "slow"}],
        "end_to_end": [{"name": "steps", "unit": "1/s", "better": "higher"},
                       {"name": "wall", "unit": "s", "better": "lower"}]}


def run(steps: float, wall: float, fingerprint: str = "aa") -> dict:
    return {"machine": {"nproc": 2}, "fingerprint": fingerprint, "failed": 0,
            "metrics": {"steps": {"value": steps}, "wall": {"value": wall}}}


def fake_pairs(parent_fp: str = "aa", change_fp: str = "bb") -> list[dict]:
    """Four pairs: the change steps faster in three and ties in one."""
    return [{"parent": {w: run(10.0 + i, 1.0, parent_fp) for w in ("fast", "slow")},
             "change": {w: run(10.0 + i + (i != 2), 0.5, change_fp)
                        for w in ("fast", "slow")}}
            for i in range(4)]


def test_the_writer_summarizes_each_side_and_records_unequal_fingerprints():
    doc = bench_pair.summarize(SPEC, fake_pairs())
    assert doc["pairs"] == 4 and doc["machine"] == {"nproc": 2}
    assert doc["fingerprints"]["fast"] == {"parent": "aa", "change": "bb", "equal": False}
    steps = doc["workloads"]["fast"]["metrics"]["steps"]
    assert steps["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25}
    assert steps["change"]["median"] == 12.0  # of 11, 12, 12 and 14
    assert steps["pairs_won"] == 3  # the tie counts for neither side
    assert steps["ratio"] == 12.0 / 11.5
    assert not steps["beyond_parent_spread"]  # 0.5 apart, the parent spans 1.5
    wall = doc["workloads"]["slow"]["metrics"]["wall"]
    assert wall["pairs_won"] == 4 and wall["beyond_parent_spread"]
    table = bench_pair.render(doc)
    assert "| `fast` | `steps` | 11.5 [10.75, 12.25] | 12 [" in table
    assert table.count("\n") == 2 + 2 * 2 - 1


def test_the_writer_refuses_a_missing_workload():
    pairs = fake_pairs()
    del pairs[3]["change"]["slow"]
    with pytest.raises(bench_pair.PairError, match=r"pair 3: the change lacks .*'slow'"):
        bench_pair.summarize(SPEC, pairs)


def test_the_writer_refuses_a_side_whose_fingerprints_disagree():
    pairs = fake_pairs(change_fp="aa")
    pairs[1]["parent"]["fast"]["fingerprint"] = "cc"
    with pytest.raises(bench_pair.PairError, match="fast: the parent's runs disagree"):
        bench_pair.summarize(SPEC, pairs)
    assert bench_pair.summarize(SPEC, fake_pairs(change_fp="aa"))["fingerprints"]["slow"][
        "equal"]


def test_the_runner_takes_its_run_length_from_the_spec_and_alternates_sides(monkeypatch):
    calls = []

    def fake_once(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        return run(1.0, 1.0)

    monkeypatch.setattr(bench_pair, "bench_once", fake_once)
    pairs = bench_pair.run_pairs(Path("parent"), SPEC | {"run_seconds": 7})
    assert len(pairs) == bench_pair.PAIRS == 10
    assert {(seed, seconds) for _, _, seed, seconds in calls} == {(1, 7)}
    firsts = [calls[4 * i][0] for i in range(bench_pair.PAIRS)]
    assert firsts[:2] == ["parent", bench_pair.ROOT.name] and firsts[2] == "parent"
    assert [w for _, w, _, _ in calls[:4]] == ["fast", "slow", "fast", "slow"]

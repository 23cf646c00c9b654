#!/usr/bin/env python3
"""Run the benchmark in alternating pairs, a parent revision against the
working tree, and write one BENCH file; or render such a file as a table.

    python3 scripts/bench_pair.py --parent HEAD~1 --scratch /tmp/pair \\
        --out BENCH_36.json
    python3 scripts/bench_pair.py --render BENCH_36.json

The parent's files are unpacked with ``git archive`` into a fresh directory
under ``--scratch``, so the repository gains no worktree entry. Each of the
ten pairs runs ``bench/run.py --seed 1 --trace 0`` once per workload of
BENCHMARK.json on both sides, for the ``run_seconds`` that file sets, every
run in a fresh process, and the side that goes first alternates from pair
to pair. A side whose runs disagree in parameter
fingerprint is refused; a parent whose fingerprint differs from the
change's is recorded, since a change may move bits on purpose. The file
holds the machine record, each side's fingerprints and, per workload and
end-to-end metric, both medians, quartiles, the pairs the change won and
the ratio of the medians (change over parent). Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
SEED = 1


class PairError(Exception):
    """The pair cannot be run or summarized."""


def unpack(rev: str, scratch: Path) -> Path:
    """The files of ``rev`` in a new directory under ``scratch``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                             check=False)
    if archive.returncode != 0:
        raise PairError(f"git archive {rev}: {archive.stderr.decode()[-2000:]}")
    scratch.mkdir(parents=True, exist_ok=True)
    tree = Path(tempfile.mkdtemp(prefix="parent-", dir=scratch))
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        # The archive is the repository's own, so Pythons that predate
        # extraction filters (3.10.11, 3.11.3 and older) extract it as it is.
        if hasattr(tarfile, "data_filter"):
            tar.extractall(tree, filter="data")
        else:
            tar.extractall(tree)
    return tree


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One fresh ``bench/run.py`` process: its report and result lines.

    Like ``run_all`` in ``bench/run.py``, this reads the two JSON lines that
    ``run_one`` prints last, so it follows any change to that format."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise PairError(f"{workload} in {tree} exited with {proc.returncode}:\n"
                        f"{proc.stderr[-4000:]}")
    *_, report, result = proc.stdout.splitlines()
    return json.loads(report)["report"] | json.loads(result)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(spec: dict, pairs: list[dict]) -> dict:
    """The BENCH document of ``pairs``: each pair maps ``"parent"`` and
    ``"change"`` to ``{workload: run}``, a run as :func:`bench_once` returns
    it. Refuses a pair that lacks a workload and a side whose runs disagree
    in fingerprint."""
    if not pairs:
        raise PairError("no pairs to summarize")
    names = [w["name"] for w in spec["workloads"]]
    for i, pair in enumerate(pairs):
        for side in SIDES:
            missing = sorted(set(names) - set(pair[side]))
            if missing:
                raise PairError(f"pair {i}: the {side} lacks workload(s) {missing}")
    doc = {"machine": pairs[0]["change"][names[0]]["machine"], "pairs": len(pairs),
           "fingerprints": {}, "workloads": {}}
    for name in names:
        prints = {}
        for side in SIDES:
            seen = {pair[side][name]["fingerprint"] for pair in pairs}
            if len(seen) != 1:
                raise PairError(f"{name}: the {side}'s runs disagree in fingerprint "
                                f"({', '.join(sorted(p[:16] for p in seen))})")
            prints[side] = seen.pop()
        doc["fingerprints"][name] = prints | {"equal": prints["parent"] == prints["change"]}
        rows = {}
        for metric in spec["end_to_end"]:
            sign = 1 if metric["better"] == "higher" else -1
            values = {side: [pair[side][name]["metrics"][metric["name"]]["value"]
                             for pair in pairs] for side in SIDES}
            row = {side: quartiles(values[side]) for side in SIDES}
            row["ratio"] = row["change"]["median"] / row["parent"]["median"]
            row["pairs_won"] = sum(sign * (c - p) > 0
                                   for p, c in zip(values["parent"], values["change"]))
            row["beyond_parent_spread"] = (
                abs(row["change"]["median"] - row["parent"]["median"])
                > row["parent"]["q3"] - row["parent"]["q1"])
            rows[metric["name"]] = row | {"unit": metric["unit"], "better": metric["better"],
                                          "values": values}
        failed = {side: sum(pair[side][name]["failed"] for pair in pairs) for side in SIDES}
        doc["workloads"][name] = {"failed_checks": failed, "metrics": rows}
    return doc


def render(doc: dict) -> str:
    """The markdown table of a BENCH document."""
    def cell(q: dict) -> str:
        return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"

    lines = ["| workload | metric | parent median [q1, q3] | change median [q1, q3] "
             "| ratio | pairs won | beyond parent spread |",
             "|---|---|---|---|---|---|---|"]
    for name, entry in doc["workloads"].items():
        for metric, row in entry["metrics"].items():
            lines.append(f"| `{name}` | `{metric}` | {cell(row['parent'])} | "
                         f"{cell(row['change'])} | {row['ratio']:.3f} | "
                         f"{row['pairs_won']}/{doc['pairs']} | "
                         f"{'yes' if row['beyond_parent_spread'] else 'no'} |")
    return "\n".join(lines)


def run_pairs(parent: Path, spec: dict) -> list[dict]:
    trees = {"parent": parent, "change": ROOT}
    pairs = []
    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: {} for side in SIDES}
        for side in order:
            for workload in spec["workloads"]:
                run = bench_once(trees[side], workload["name"], SEED,
                                 spec["run_seconds"])
                pair[side][workload["name"]] = run
        pairs.append(pair)
        print(f"pair {i + 1}/{PAIRS} done ({' then '.join(order)})", file=sys.stderr,
              flush=True)
    return pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--render", type=Path, help="print the table of a BENCH file")
    parser.add_argument("--parent", help="the git revision to pair against the tree")
    parser.add_argument("--scratch", type=Path, help="where the parent is unpacked")
    parser.add_argument("--out", type=Path, help="the BENCH file to write")
    args = parser.parse_args(argv)
    try:
        if args.render:
            print(render(json.loads(args.render.read_text())))
            return 0
        if not (args.parent and args.scratch and args.out):
            parser.error("--parent, --scratch and --out are needed to run pairs")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        pairs = run_pairs(unpack(args.parent, args.scratch), spec)
        doc = summarize(spec, pairs) | {
            "command": {"parent": args.parent, "pairs": PAIRS, "seed": SEED,
                        "seconds": spec["run_seconds"]}}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        print(render(doc))
        return 0
    except PairError as exc:
        print(f"bench_pair: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

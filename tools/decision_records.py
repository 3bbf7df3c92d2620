"""Decision records of both detectors, and the diff of two record files.

Run from the root of a checkout, so that its own ``src/`` is imported:

    python3 tools/decision_records.py > change.jsonl
    python3 tools/decision_records.py --long-file 201,211 > change.jsonl
    python3 tools/decision_records.py --a5 > tests/data/decisions_a5.jsonl
    python3 tools/decision_records.py --diff parent.jsonl change.jsonl

The inputs are the 400 A5 utterances of ``tests/test_acceptance.py`` and the
detect-short inputs of ``perfbench/workloads.py`` for seeds 201 and 1201
and the long-file recordings of any ``--long-file`` seeds.
Each input is decided as given and negated, by each method of
``harness.METHODS``.  One JSON record per line holds the input,
orientation and method, and for ``hp`` the polarity, votes and
``anchors_used``, for ``reskew`` the polarity and ``repr(statistic)``; a
decision that gives a reason for abstaining adds it as ``reason``.

``--a5`` writes only the A5 utterances as given, 800 records: the golden
file ``tests/data/decisions_a5.jsonl``, which Tier-1 compares with the
decisions of its A5 test.

``--diff A B`` lists the records that differ or that only one file has,
with the relative change of a differing statistic.  It exits 1 if any
polarity or vote differs or a record is missing, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

VOTES = ("positive_votes", "negative_votes", "anchors_used")


SHORT_SEEDS = (201, 1201)


def _seeds(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _inputs(long_seeds: list[int], a5_only: bool):
    """(name, signal) for every input, A5 first."""
    from speechpolarity import generate_utterance
    from test_acceptance import evaluation_specs

    for i, spec in enumerate(evaluation_specs()):
        yield f"a5/{i}", generate_utterance(spec)
    if a5_only:
        return
    import workloads
    for kind, build, chosen in (("detect-short", workloads.detect_short, SHORT_SEEDS),
                                ("long-file", workloads.long_file, long_seeds)):
        for seed in chosen:
            for op in build(seed, Path.cwd()).ops:
                if op.method == "hp":  # each input appears once per method
                    yield f"{kind}/{seed}/{op.label}", op.signal


def decision_record(name: str, orientation: str, method: str, d) -> dict:
    """The record of decision ``d``, or of the exception a detector raised instead."""
    rec = {"input": name, "orientation": orientation, "method": method}
    if isinstance(d, Exception):
        rec["error"] = type(d).__name__
        return rec
    rec["polarity"] = d.polarity.value
    if method == "hp":
        rec.update({k: getattr(d, k) for k in VOTES})
    else:
        rec["statistic"] = repr(d.statistic)
    if getattr(d, "reason", None):
        rec["reason"] = d.reason
    return rec


def _record(name: str, orientation: str, method: str, decide, signal) -> dict:
    try:
        d = decide(signal)
    except Exception as exc:  # a raised error is a decision too
        d = exc
    return decision_record(name, orientation, method, d)


def write_records(long_seeds: list[int], out, a5_only: bool = False) -> None:
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench"), str(root / "tests")]
    from speechpolarity.harness import METHODS
    for name, signal in _inputs(long_seeds, a5_only):
        orientations = (("given", signal),) if a5_only else (("given", signal),
                                                              ("negated", signal.negated()))
        for orientation, s in orientations:
            for method, decide in METHODS.items():
                out.write(json.dumps(_record(name, orientation, method, decide, s)) + "\n")


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        records = [json.loads(line) for line in f if line.strip()]
    return {(r["input"], r["orientation"], r["method"]): r for r in records}


def diff(path_a: str, path_b: str) -> int:
    a, b = _load(path_a), _load(path_b)
    decisive = 0
    worst = 0.0
    for key in sorted(a.keys() | b.keys()):
        ra, rb = a.get(key), b.get(key)
        if ra == rb:
            continue
        label = " ".join(key)
        if ra is None or rb is None:
            decisive += 1
            print(f"only in {path_a if rb is None else path_b}: {label}")
            continue
        changed = sorted(k for k in ra.keys() | rb.keys() if ra.get(k) != rb.get(k))
        if changed == ["statistic"]:
            sa, sb = float(ra["statistic"]), float(rb["statistic"])
            rel = abs(sb - sa) / max(abs(sa), abs(sb))
            worst = max(worst, rel)
            print(f"statistic {label}: {ra['statistic']} -> {rb['statistic']} ({rel:.2g} relative)")
            continue
        decisive += 1
        print(f"decision {label}: " + ", ".join(f"{k} {ra.get(k)} -> {rb.get(k)}" for k in changed))
    print(f"{len(a)} and {len(b)} records; {decisive} differ in a decision, vote or presence; "
          f"largest relative statistic change {worst:.2g}")
    return 1 if decisive else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--long-file", type=_seeds, default=[], metavar="SEEDS",
                        help="long-file seeds to add (default none)")
    parser.add_argument("--a5", action="store_true",
                        help="write only the A5 utterances as given (the golden file)")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="compare two record files instead of writing records")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if args.a5 and args.long_file:
        parser.error("--a5 takes no --long-file seeds")
    write_records(args.long_file, sys.stdout, args.a5)
    return 0


if __name__ == "__main__":
    sys.exit(main())

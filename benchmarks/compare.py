"""Compare two result sets of the untraced benchmark runs.

    python3 benchmarks/compare.py BASE_DIR NEW_DIR

Each directory holds the `*-trace0.json` files that `run.py` wrote under
`.benchresults/` for one commit; copy that directory aside between commits.
Runs on the two sides should use the same seeds and `--seconds`. For every
workload and end-to-end metric it prints both medians and quartiles, the
change, the bound from BENCHMARK.json, and a verdict:

- `worse`: the new median is worse than the base median by more than the bound;
- `unresolved`: the base's own quartile spread is wider than the bound, and
  not every new run beats every base run;
- `better`: the new side wins at least nine tenths of the same-seed pairs,
  and the medians differ by more than the base's quartile spread;
- `same`: otherwise.

It then names every workload and seed whose learning digest differs. It
exits non-zero when any metric is `worse` or any digest differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> tuple[dict, dict]:
    """(workload, metric) -> {seed: value}, and (workload, seed) -> learning digest."""
    values: dict[tuple[str, str], dict[int, float]] = {}
    digests: dict[tuple[str, int], str] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        digests[(record["workload"], record["seed"])] = record["quality"].get("digest")
        for name, metric in record["metrics"].items():
            if metric["value"] is not None:
                values.setdefault((record["workload"], name), {})[record["seed"]] = \
                    metric["value"]
    return values, digests


def verdict(base: dict[int, float], new: dict[int, float], lower_is_better: bool,
            bound: float) -> str:
    sign = -1.0 if lower_is_better else 1.0
    b, n = list(base.values()), list(new.values())
    b_med, n_med = statistics.median(b), statistics.median(n)
    b_spread = 0.0
    if len(b) >= 2:
        q = statistics.quantiles(b, n=4)
        b_spread = q[2] - q[0]
    if sign * (n_med - b_med) < -bound * abs(b_med):
        return "worse"
    if b_med and b_spread / abs(b_med) > bound and \
            not min(sign * x for x in n) > max(sign * x for x in b):
        return "unresolved"
    pairs = [(base[s], new[s]) for s in base.keys() & new.keys()]
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (n_med - b_med) > b_spread:
        return "better"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["better"] == "lower", m["bound"]) for m in spec["end_to_end"]}
    (base, base_digests), (new, new_digests) = load(Path(argv[0])), load(Path(argv[1]))
    worse = 0
    print(f"{'workload':20} {'metric':22} {'base median [q1,q3]':>34} "
          f"{'new median [q1,q3]':>34} {'change':>8} {'bound':>6}  verdict")
    for key in sorted(base.keys() & new.keys()):
        if key[1] not in bounds:
            continue
        lower, bound = bounds[key[1]]
        cells = []
        for side in (base[key], new[key]):
            vals = list(side.values())
            q = statistics.quantiles(vals, n=4) if len(vals) >= 2 else [vals[0]] * 3
            cells.append(f"{statistics.median(vals):.5g} [{q[0]:.5g},{q[2]:.5g}] n={len(vals)}")
        b_med = statistics.median(base[key].values())
        change = statistics.median(new[key].values()) / b_med - 1 if b_med else 0.0
        result = verdict(base[key], new[key], lower, bound)
        worse += result == "worse"
        print(f"{key[0]:20} {key[1]:22} {cells[0]:>34} {cells[1]:>34} "
              f"{change:+8.2%} {bound:6.2f}  {result}")
    changed = [key for key in sorted(base_digests.keys() & new_digests.keys())
               if base_digests[key] != new_digests[key]]
    for workload, seed in changed:
        print(f"learning changed: {workload} seed {seed}")
    return 1 if worse or changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

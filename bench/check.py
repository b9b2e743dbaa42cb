#!/usr/bin/env python3
"""Gate a bench run against its checked-in baseline.

Usage: check.py BENCH CANDIDATE.json [BASELINE.json]
       check.py --self-test

BENCH names an entry of the gate table below: transfer, drift, fleet, batch,
sequence, fusion, acqsweep or cwt.  BASELINE defaults to bench/BENCH_<bench>.json.
Prints one row per gated metric and exits 1 when any gate fails:

  * a criterion flag is not true (on the candidate, the baseline or both);
  * a banded metric is missing or falls past its band: an absolute
    tolerance, a fraction or a factor of the baseline, clamped by a floor;
  * a keyed row (one per batch size, frontier config, budget, ...) present in
    both documents falls past its band;
  * a section that must match the baseline (fleet's load config) differs;
  * a structural invariant of the bench's own data breaks.

Improvements never fail; re-pin the baseline to lock them in.  --self-test
checks every baseline against itself and, for every gate, a copy of the
baseline mutated to break exactly that gate.  Stdlib only.
"""
import copy
import json
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).parent
_STEP = re.compile(r"([^.\[]+)(?:\[([^=\]]*)=([^\]]*)\])?")


def _steps(path):
    """'a.b[k=v].c' -> [('a', None, None), ('b', 'k', 'v'), ('c', None, None)]."""
    return [(n, k or None, v) for n, k, v in _STEP.findall(path)]


def _step(node, name, key, want):
    node = node.get(name) if isinstance(node, dict) else None
    if key is not None:
        node = next((r for r in node or [] if str(r.get(key)) == want), None)
    return node


def get(doc, path):
    """Value at `path` in a bench document, None when absent.

    `path` is dotted; `rows[key=value]` picks the first element of the list
    `rows` whose field `key` prints as `value`.
    """
    node = doc
    for step in _steps(path):
        node = _step(node, *step)
        if node is None:
            return None
    return node


def put(doc, path, value):
    """Set the field at `path` (its parent must exist); None deletes it."""
    steps = _steps(path)
    node = doc
    for step in steps[:-1]:
        node = _step(node, *step)
    name = steps[-1][0]
    if value is None:
        del node[name]
    else:
        node[name] = value


@dataclass
class Derived:
    """A metric computed from several fields, with the inverse the self-test
    uses to plant a value."""
    name: str
    get: object
    put: object


@dataclass
class Criterion:
    path: str
    scope: str = "candidate"  # "candidate", "baseline" or "both"


@dataclass
class Band:
    """One metric: a path or a Derived, banded against the baseline's value.

    `sense` "higher": the candidate must reach the largest of base - tol,
    base * frac and floor.  `sense` "lower": it may reach at most base + tol or
    base * factor.  No bound at all makes a display row that must be present.
    """
    path: object
    sense: str = "higher"
    tol: float = None
    frac: float = None
    factor: float = None
    floor: float = None

    @property
    def name(self):
        return self.path.name if isinstance(self.path, Derived) else self.path

    def value(self, doc):
        return self.path.get(doc) if isinstance(self.path, Derived) else get(doc, self.path)

    def limit(self, base):
        """Worst acceptable candidate value, or None for a display row."""
        if self.sense == "lower":
            if self.tol is not None:
                return base + self.tol
            return None if self.factor is None else base * self.factor
        bounds = [base - self.tol if self.tol is not None else None,
                  base * self.frac if self.frac is not None else None, self.floor]
        return max((b for b in bounds if b is not None), default=None)

    def passes(self, got, limit):
        return got >= limit if self.sense == "higher" else got <= limit


@dataclass
class Keyed:
    """`band` applied to `metrics` of every row of the list `rows` whose
    `key` appears in both documents (rows `where` rejects are skipped)."""
    rows: str
    key: str
    metrics: tuple
    band: Band
    where: object = None

    def bands(self, cand, base):
        def keys(doc):
            return [r[self.key] for r in get(doc, self.rows) or []
                    if self.where is None or self.where(r)]
        in_base = set(keys(base))
        return [replace(self.band, path=f"{self.rows}[{self.key}={k}].{m}")
                for k in keys(cand) if k in in_base for m in self.metrics]


@dataclass
class Invariant:
    """A structural check of one document: `check(doc)` lists its problems.
    `breaks` are (path, value) plants that must each make it fail."""
    check: object
    breaks: tuple
    scope: str = "candidate"

    @property
    def name(self):
        return self.check.__name__


@dataclass
class Bench:
    criteria: tuple = ()
    bands: tuple = ()
    keyed: tuple = ()
    invariants: tuple = ()
    same: tuple = ()  # sections the candidate must share with the baseline


# ---------------------------------------------------------------------------
# Invariants: the structural checks the table cannot express.


def pooled_beats_best_single(doc):
    """Fleet-pooled zero-shot, re-derived from the raw singles so a bench
    that mis-computes its own criterion flag still fails."""
    md = doc.get("multi_device", {})
    singles = [s["accuracy"] for s in md.get("singles", [])]
    if not singles:
        return ["multi_device section missing or has no single baselines"]
    pooled = md.get("pooled_accuracy", 0.0)
    if pooled <= max(singles):
        return [f"pooled zero-shot model does not strictly beat the best "
                f"single-device baseline: {pooled:.4f} vs {max(singles):.4f}"]
    return []


def hot_swap(doc):
    swap = doc.get("hot_swap", {})
    problems = []
    if swap.get("model_swaps", 0) < 1:
        problems.append("hot-swap demo performed no model swap")
    if swap.get("accuracy_after", 0.0) < swap.get("accuracy_before", 0.0) - 0.02:
        problems.append(f"hot-swapped model lost accuracy: {swap.get('accuracy_before')} "
                        f"-> {swap.get('accuracy_after')}")
    return problems


def recal_ledger(doc):
    recal = doc.get("recal", {})
    problems = []
    if recal.get("traces_spent", 0) > recal.get("trace_budget", 0):
        problems.append(f"labeled-trace budget overrun: spent {recal.get('traces_spent')} "
                        f"of {recal.get('trace_budget')}")
    if recal.get("model_swaps", 0) < 1:
        problems.append("recovery happened without a hot swap (or not at all)")
    if recal.get("registry_versions", 0) < 1:
        problems.append("no recalibrated model was published to the registry")
    return problems


def drift_timeline(doc):
    timeline = doc.get("timeline", [])
    if len(timeline) < 10:
        return [f"timeline has {len(timeline)} batches, expected >= 10"]
    if timeline[0].get("model_stamp") != 0:
        return ["first timeline batch not served by the construction-time model"]
    return []


def ledger_closure(doc):
    """Every submitted window delivered; both over-admission ledgers close
    inside the stream credit, and reject-new only refuses."""
    cfg, fleet = doc.get("config", {}), doc.get("fleet", {})
    problems = []
    if cfg.get("streams", 0) * cfg.get("windows_per_stream", 0) != fleet.get("delivered"):
        problems.append(f"delivery ledger open: {cfg.get('streams')} x "
                        f"{cfg.get('windows_per_stream')} submitted, "
                        f"{fleet.get('delivered')} delivered")
    shedding = doc.get("shedding", {})
    for policy in ("shed_oldest", "reject_new"):
        row = shedding.get(policy, {})
        if row.get("admitted", 0) != row.get("delivered", 0) + row.get("shed", 0):
            problems.append(f"{policy} ledger open: admitted {row.get('admitted')} != "
                            f"delivered {row.get('delivered')} + shed {row.get('shed')}")
        if row.get("max_outstanding", 0) > shedding.get("stream_credit", 0):
            problems.append(f"{policy} exceeded stream credit: outstanding "
                            f"{row.get('max_outstanding')} > {shedding.get('stream_credit')}")
    if shedding.get("reject_new", {}).get("shed", 0) != 0:
        problems.append("reject-new policy shed windows; it must only refuse")
    return problems


def degradation_sweep(doc):
    """The fused curve never dips under power-only at any severity."""
    sweep = doc.get("degradation", [])
    if not sweep:
        return ["degradation sweep is empty"]
    return [f"fused fell below power-only at severity {p.get('severity')}: "
            f"{p.get('power')} -> {p.get('fused')}"
            for p in sweep if p.get("fused", 0.0) < p.get("power", 1.0) - 1e-9]


def frontier_monotone(doc):
    """>= 4 configs led by nominal, in descending cost, and no cheaper config
    beats a richer one by more than 0.03 (sampling jitter)."""
    frontier = doc.get("frontier", [])
    problems = []
    if len(frontier) < 4:
        problems.append(f"frontier has {len(frontier)} configs, need >= 4")
    costs = [p["cost"] for p in frontier]
    if costs != sorted(costs, reverse=True):
        problems.append("frontier is not ordered by descending cost")
    for prev, cur in zip(frontier, frontier[1:]):
        if cur["accuracy"] > prev["accuracy"] + 0.03:
            problems.append(f"cheaper config '{cur['label']}' beats '{prev['label']}' "
                            f"beyond noise: {prev['accuracy']:.4f} -> {cur['accuracy']:.4f}")
    if frontier and frontier[0]["label"] != "nominal":
        problems.append("frontier does not lead with the nominal config")
    return problems


def zero_shot_consistent(doc):
    """The pooled model strictly beats every single-device baseline, and the
    reported best single / lift / accepted fraction agree with the raw data."""
    problems = pooled_beats_best_single(doc)
    md = doc.get("multi_device", {})
    singles = [s["accuracy"] for s in md.get("singles", [])]
    if singles:
        best, pooled = max(singles), md.get("pooled_accuracy", 0.0)
        if abs(md.get("best_single_accuracy", -1.0) - best) > 1e-6:
            problems.append("best_single_accuracy does not match the singles list")
        if abs(md.get("pooled_lift", -1.0) - (pooled - best)) > 1e-6:
            problems.append("pooled_lift does not equal pooled - best_single")
    if not 0.0 < md.get("pooled_accepted_fraction", 0.0) <= 1.0:
        problems.append("pooled model accepted no field windows on the holdout")
    return problems


# ---------------------------------------------------------------------------
# Derived metrics.


def _lift(doc):
    decoded, argmax = get(doc, "primary.accuracy"), get(doc, "argmax.accuracy")
    return None if decoded is None or argmax is None else decoded - argmax


def _top_severity(doc):
    return max(doc.get("degradation") or [{}], key=lambda p: p.get("severity", 0.0))


ACCURACY_LIFT = Derived(
    "accuracy_lift", _lift,
    lambda doc, v: put(doc, "argmax.accuracy", get(doc, "primary.accuracy") - v))
TOP_SEVERITY_FLAGGED = Derived(
    "top_severity_flagged", lambda doc: _top_severity(doc).get("degraded_fraction"),
    lambda doc, v: _top_severity(doc).update(degraded_fraction=v))


# ---------------------------------------------------------------------------
# The gate table.  CI runs every bench under SIDIS_FAST=1 except fleet, which
# only compares at its baseline's full-size config.  Accuracy tolerances are
# absolute points: the fast runs are bit-deterministic, so they separate
# cross-platform headroom from a real regression.  Speed bands are wide
# fractions or factors because the coverage job runs an -O1 + gcov build
# against Release baselines.

MULTI_DEVICE = tuple(Band(f"multi_device.{k}", tol=0.02)
                     for k in ("pooled_accuracy", "best_single_accuracy", "pooled_lift"))

BENCHES = {
    "transfer": Bench(
        criteria=(Criterion("summary.criterion_cross_device_drop"),
                  Criterion("summary.criterion_csa_recovery"),
                  Criterion("criterion_curve_monotone"),
                  Criterion("criterion_zero_shot_lift")),
        bands=(Band("summary.diag_csa", tol=0.02),
               Band("summary.offdiag_csa", tol=0.02),
               Band("summary.diag_without_csa", tol=0.02),
               # How hard transfer without CSA fails: a shrinking drop means
               # the device-variation model stopped biting.
               Band("summary.cross_device_drop_without_csa", tol=0.02),
               Band("summary.csa_gap_recovered_fraction", tol=0.02)) + MULTI_DEVICE,
        keyed=(Keyed("budget_curve", "budget_per_class",
                     ("renorm_accuracy", "refit_accuracy"), Band(None, tol=0.02)),),
        invariants=(
            Invariant(pooled_beats_best_single,
                      (("multi_device.singles[train_device=0].accuracy", 0.99),
                       ("multi_device.singles", []))),
            Invariant(hot_swap, (("hot_swap.model_swaps", 0),
                                 ("hot_swap.accuracy_after", 0.5))))),
    "drift": Bench(
        criteria=(Criterion("drift.criterion_shift_at_least_2sigma"),
                  Criterion("detection.criterion_detected_within_budget"),
                  Criterion("recovery.criterion_recovered_within_2pts"),
                  Criterion("recal.criterion_budget_respected"),
                  Criterion("recal.criterion_hot_swapped")),
        bands=(Band("drift.feature_shift_sigma", tol=0.25),
               # The monitor quantizes latency to a few windows per crossing.
               Band("detection.latency_windows", "lower", tol=20),
               Band("recovery.clean_accuracy", tol=0.02),
               Band("recovery.recovered_final_accuracy", tol=0.02),
               # A deeper dip means the stale model bled longer before the
               # scheduler caught it.
               Band("recovery.dip_depth", "lower", tol=0.07)),
        invariants=(
            Invariant(recal_ledger, (("recal.traces_spent", 1000),
                                     ("recal.model_swaps", 0),
                                     ("recal.registry_versions", 0))),
            Invariant(drift_timeline, (("timeline", []),
                                       ("timeline[window=0].model_stamp", 1))))),
    "fleet": Bench(
        criteria=(Criterion("fleet.criterion_delivery_accounting"),
                  Criterion("comparison.criterion_fleet_faster_than_independent"),
                  Criterion("shedding.criterion_shed_bounded_credit")),
        # speedup_vs_dedicated is the bench's median over alternated legs.
        # Throughput only catches a 10x collapse (machine load and build
        # flavor move it); coalescing is scheduling, not timing.
        bands=(Band("comparison.speedup_vs_dedicated", frac=0.6, floor=1.0),
               Band("fleet.windows_per_sec", frac=0.1, floor=0.0),
               Band("fleet.coalescing", frac=0.5, floor=1.0),
               # Written with one decimal, so >= 0.1 means "histogram recorded".
               Band("fleet.p99_us", floor=0.1)),
        invariants=(Invariant(ledger_closure, (("fleet.delivered", 0),
                                               ("shedding.shed_oldest.shed", 0),
                                               ("shedding.reject_new.shed", 1),
                                               ("shedding.reject_new.max_outstanding", 99))),),
        # The bands mean something only at the baseline's load: refuse a
        # SIDIS_FAST or SIDIS_FLEET_* run.
        same=("config",)),
    "batch": Bench(
        # Bit-identity holds on every build flavor; the 2x-at-16 criterion
        # is a Release statement the pinned baseline must carry.
        criteria=(Criterion("identity.criterion_identical"),
                  Criterion("comparison.criterion_batch16_2x", "baseline")),
        # Speedups (medians over alternated scalar/batch legs) keep 0.4x the
        # Release baseline, never below parity with the scalar loop; batch 1
        # takes the scalar fallback.  Batches 2 and 4 -- the widths a fleet
        # coalesces and level 2 splits a batch into -- have floors above
        # what they read while sub-16-lane remainders kept their sums in
        # memory (batch 2: 0.49x Release, 0.81x coverage; batch 4: 0.95x,
        # 1.1x).
        bands=(Band("batch[batch=16].speedup_vs_scalar", frac=0.4, floor=1.0),
               Band("batch[batch=64].speedup_vs_scalar", frac=0.4, floor=1.0),
               Band("batch[batch=8].speedup_vs_scalar", frac=0.4, floor=1.0),
               Band("batch[batch=4].speedup_vs_scalar", frac=0.4, floor=1.25),
               Band("batch[batch=2].speedup_vs_scalar", frac=0.4, floor=0.9),
               Band("batch[batch=1].speedup_vs_scalar", floor=0.5),
               Band("scalar.windows_per_sec", frac=0.1),
               Band("identity.windows_checked", floor=1))),
    "sequence": Bench(
        criteria=(Criterion("primary.criterion_decoded_above_argmax", "both"),
                  Criterion("primary.criterion_blocks_recovered", "both")),
        bands=(Band("argmax.accuracy"), Band("argmax.block_recovery"),
               Band("primary.accuracy", tol=0.05),
               Band("primary.block_recovery", tol=0.05),
               Band(ACCURACY_LIFT, frac=0.3),
               # A pure-CPU lattice cost, measured on the -O1 + gcov build.
               Band("primary.decode_ns_per_window", "lower", factor=20.0))),
    "fusion": Bench(
        criteria=(Criterion("criterion_fusion_beats_singles", "both"),
                  Criterion("criterion_degradation_holds", "both")),
        bands=(Band("clean.power"), Band("clean.em"),
               Band("clean.fused", tol=0.06), Band("clean.heldout"),
               # Degraded windows must be flagged, or graceful degradation
               # lies about its confidence.
               Band(TOP_SEVERITY_FLAGGED, floor=0.25)),
        invariants=(Invariant(degradation_sweep,
                              (("degradation", []),
                               ("degradation[severity=1.0].fused", 0.0))),)),
    "acqsweep": Bench(
        criteria=(Criterion("criterion_frontier_monotone"),
                  Criterion("criterion_nominal_identity"),
                  Criterion("criterion_zero_shot_lift")),
        bands=MULTI_DEVICE + (Band("multi_device.pooled_flagged_miss_fraction", tol=0.02),),
        keyed=(Keyed("frontier", "label", ("accuracy",), Band(None, tol=0.02)),),
        invariants=(
            Invariant(frontier_monotone,
                      (("frontier[label=quarter-rate].accuracy", 0.9999),
                       ("frontier[label=6-bit].cost", 99999),
                       ("frontier[label=nominal].label", "first")), "both"),
            Invariant(zero_shot_consistent,
                      (("multi_device.singles[train_device=0].accuracy", 0.99),
                       ("multi_device.pooled_lift", 0.5),
                       ("multi_device.pooled_accepted_fraction", 0.0)), "both"))),
    # google-benchmark JSON from bench_throughput: single-run microbenchmarks
    # on a shared box jitter by tens of percent, so only 1.5x is a regression.
    "cwt": Bench(
        keyed=(Keyed("benchmarks", "name", ("cpu_time",), Band(None, "lower", factor=1.5),
                     where=lambda r: r.get("run_type", "iteration") == "iteration"),)),
}


# ---------------------------------------------------------------------------


SIDES = {"candidate": ("candidate",), "baseline": ("baseline",),
         "both": ("candidate", "baseline")}


def _fmt(v):
    return f"{v:.4f}" if isinstance(v, float) else str(v)


def check(bench, cand, base):
    """Rows (metric, baseline, candidate, gate) and failures (gate, message)."""
    spec = BENCHES[bench]
    docs = {"candidate": cand, "baseline": base}
    rows, failures = [], []
    for section in spec.same:
        if cand.get(section) != base.get(section):
            failures.append((section, f"candidate {section} {cand.get(section)} differs "
                                      f"from the baseline's {base.get(section)}"))
    for c in spec.criteria:
        rows.append((c.path, get(base, c.path), get(cand, c.path), f"true ({c.scope})"))
        for who in SIDES[c.scope]:
            if get(docs[who], c.path) is not True:
                failures.append((c.path, f"{who} {c.path} is {get(docs[who], c.path)}, "
                                         f"expected true"))
    bands = list(spec.bands) + [b for k in spec.keyed for b in k.bands(cand, base)]
    for band in bands:
        b, got = band.value(base), band.value(cand)
        if b is None or got is None:
            rows.append((band.name, b, got, "present"))
            failures.append((band.name, f"{band.name} missing (baseline={b}, candidate={got})"))
            continue
        limit = band.limit(b)
        op = ">=" if band.sense == "higher" else "<="
        rows.append((band.name, b, got, "shown" if limit is None else f"{op} {_fmt(limit)}"))
        if limit is not None and not band.passes(got, limit):
            failures.append((band.name, f"{band.name} regressed: {_fmt(b)} -> {_fmt(got)} "
                                        f"(needs {op} {_fmt(limit)})"))
    for inv in spec.invariants:
        for who in SIDES[inv.scope]:
            failures += [(inv.name, f"{who} {inv.name}: {p}") for p in inv.check(docs[who])]
    return rows, failures


def report(rows, failures):
    header = ("metric", "baseline", "candidate", "gate")
    table = [header] + [(m, _fmt(b), _fmt(c), g) for m, b, c, g in rows]
    widths = [max(len(r[i]) for r in table) for i in range(4)]
    for r in table:
        print(f"{r[0]:<{widths[0]}}  {r[1]:>{widths[1]}}  {r[2]:>{widths[2]}}  {r[3]}")
    if failures:
        print(f"\nFAIL: {len(failures)} gate(s):")
        for _, message in failures:
            print(f"  - {message}")
    else:
        print("\nOK: every gate holds against the baseline")


def _load(path):
    return json.loads(Path(path).read_text())


# Hand-pinned cases beyond the generated plants: (bench, path, value, must
# fail).  The transfer drop once had its sense inverted, so a collapsed drop
# passed and a larger one failed.  Batch 2 at 0.49x is the memory-accumulator
# sub-tile path the batch-2 floor exists to catch.
PINNED = (("transfer", "summary.cross_device_drop_without_csa", 0.0, True),
          ("transfer", "summary.cross_device_drop_without_csa", 0.60, False),
          ("batch", "batch[batch=2].speedup_vs_scalar", 0.49, True))


def _plants(spec, base):
    """(gate, side, path, value) plants that must each fail `gate`."""
    for c in spec.criteria:
        for who in SIDES[c.scope]:
            yield c.path, who, c.path, False
    for section in spec.same:
        yield section, "candidate", section, {**base[section], "planted": True}
    for band in list(spec.bands) + [b for k in spec.keyed for b in k.bands(base, base)]:
        b = band.value(base)
        limit = band.limit(b)
        if limit is None:
            yield band.name, "candidate", band.path, None
            continue
        step = max(abs(limit) * 0.01, 1e-3)
        yield band.name, "candidate", band.path, limit - step if band.sense == "higher" \
            else limit + step
    for inv in spec.invariants:
        for path, value in inv.breaks:
            for who in SIDES[inv.scope]:
                yield inv.name, who, path, value


def _failed_gates(bench, base, side, path, value):
    docs = {"candidate": copy.deepcopy(base), "baseline": copy.deepcopy(base)}
    if isinstance(path, Derived):
        path.put(docs[side], value)
    else:
        put(docs[side], path, value)
    return {g for g, _ in check(bench, docs["candidate"], docs["baseline"])[1]}


def self_test():
    baselines = {bench: _load(HERE / f"BENCH_{bench}.json") for bench in BENCHES}
    problems = []
    planted = 0
    for bench, spec in BENCHES.items():
        base = baselines[bench]
        _, failures = check(bench, base, base)
        problems += [f"{bench}: baseline fails against itself: {m}" for _, m in failures]
        for gate, side, path, value in _plants(spec, base):
            planted += 1
            failed = _failed_gates(bench, base, side, path, value)
            if gate not in failed:
                name = path.name if isinstance(path, Derived) else path
                problems.append(f"{bench}: {side} {name} = {value!r} did not fail "
                                f"'{gate}' (failed: {sorted(failed)})")
    for bench, path, value, must_fail in PINNED:
        planted += 1
        if bool(_failed_gates(bench, baselines[bench], "candidate", path, value)) != must_fail:
            problems.append(f"{bench}: {path} = {value!r} should "
                            f"{'fail' if must_fail else 'pass'}")
    for p in problems:
        print(f"  - {p}")
    print(f"{'FAIL' if problems else 'OK'}: {len(BENCHES)} benches, {planted} planted "
          f"regressions, {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) not in (3, 4) or argv[1] not in BENCHES:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bench = argv[1]
    baseline = argv[3] if len(argv) > 3 else HERE / f"BENCH_{bench}.json"
    rows, failures = check(bench, _load(argv[2]), _load(baseline))
    report(rows, failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

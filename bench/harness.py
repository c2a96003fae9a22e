"""Workloads, independent output checks and the closed measuring loop.

One process, one client: each operation starts when the previous one has
been timed and checked.  Instances are planted from the workload seed;
the solver only sees the generated equations.  Every grid instance is
attempted once in a census pass (the known defects show up there as
failures), and the closed loop then repeats the solved instances of the
timed cells for the requested number of seconds of operation time.
Operation and set-up times are scaled to a reference machine speed by
``speed.SpeedGauge``; the raw wall times go to the rows and the summary.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from matpolyeq import cli, instances, io, solver
from matpolyeq.solver import Orientation, SolverConfig

from speed import REFERENCE_S, SpeedGauge
from tracer import Tracer

DEGREE = 2
TOL_RESIDUAL = SolverConfig().tol_residual
TRUTH_TOL = 1e-6
SETUP_REPEATS = 5
# enough operations that at least ten samples lie beyond p90
MIN_OPS = 100
ORIENTATIONS = (Orientation.UNKNOWNS_LEFT, Orientation.UNKNOWNS_RIGHT)


@dataclass(frozen=True)
class Workload:
    """A grid of planted cells and the operation run on each instance.

    ``timed`` cells are repeated in the closed loop; ``census`` cells are
    attempted once per run and include the timed ones.  ``copies`` distinct
    instances are planted per (n, m, orientation) cell.  ``op`` runs one
    solve through the public entry points and is the only timed call;
    ``read`` turns its output into an (F, m, n, n) array of unknowns.
    ``documents`` workloads read equations from the JSON documents written
    in set-up.
    """

    name: str
    timed: tuple[tuple[int, int], ...]
    census: tuple[tuple[int, int], ...]
    copies: int
    op: Callable[["Instance", str], Any]
    read: Callable[["Instance", Any], np.ndarray]
    check_truth: bool = False
    documents: bool = False


@dataclass
class Instance:
    n: int
    m: int
    orientation: Orientation
    seed: int
    planted: Any
    doc: str
    timed: bool


class OpFailure(Exception):
    """An operation produced no usable result (exit code, no family, ...).

    ``wrong`` marks a result that was produced but is incorrect, as opposed
    to no result at all.
    """

    def __init__(self, message: str, wrong: bool = False):
        super().__init__(message)
        self.wrong = wrong


def uni_op(inst: Instance, workdir: str):
    cfg = SolverConfig(max_classes=math.comb(2 * inst.n, inst.n))
    return solver.solve_univariate(inst.planted.equation, cfg).families


def multi_op(inst: Instance, workdir: str):
    return solver.solve_multivariate(inst.planted.equation).families


def cli_op(inst: Instance, workdir: str):
    sol = os.path.join(workdir, "solution.json")
    report = os.path.join(workdir, "verify.json")
    err = stdio.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["solve", inst.doc, "--seed", "0", "--output", sol])
        if code == 0:
            code = cli.main(["verify", inst.doc, sol, "--output", report])
    if code != 0:
        raise OpFailure(
            f"exit {code}: {err.getvalue().strip()[:200]}", wrong=code == cli.EXIT_VERIFY_FAILED
        )
    return sol, report


def _pairs(value) -> np.ndarray:
    a = np.asarray(value, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def read_families(inst: Instance, families) -> np.ndarray:
    if not families:
        raise OpFailure("no accepted family")
    return np.array([f.unknowns for f in families], dtype=np.complex128)


def read_documents(inst: Instance, paths) -> np.ndarray:
    """Re-read the written solution and verify report without the io module."""
    sol, report = paths
    with open(sol, encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(report, encoding="utf-8") as fh:
        rep = json.load(fh)
    fams = doc["families"]
    if rep.get("all_ok") is not True or len(rep.get("families", [])) != len(fams):
        raise OpFailure("verify report disagrees with the solution document", wrong=True)
    if not fams:
        raise OpFailure("no accepted family")
    return np.array([_pairs(f["unknowns"]) for f in fams])


# The census cells beyond the timed ones are the sizes where the solver is
# known to fail (multi n = 16; cli-uni n >= 16, and n = 12 for some seeds):
# they are attempted on every run so that a fix or a regression shows.
WORKLOADS = {
    "uni-enum": Workload(
        name="uni-enum",
        timed=((4, 1), (5, 1), (6, 1)),
        census=((4, 1), (5, 1), (6, 1)),
        copies=2,
        op=uni_op,
        read=read_families,
        check_truth=True,
    ),
    "multi": Workload(
        name="multi",
        timed=tuple((n, m) for m in (2, 3) for n in (4, 8, 12)),
        census=tuple((n, m) for m in (2, 3) for n in (4, 8, 12, 16)),
        # retries make n = 12 solve times vary widely from instance to
        # instance, and p90 lies among them: many instances keep it steady
        copies=12,
        op=multi_op,
        read=read_families,
    ),
    "cli-uni": Workload(
        name="cli-uni",
        timed=((2, 1), (4, 1), (8, 1)),
        census=tuple((n, 1) for n in (2, 4, 8, 12, 16, 24, 32)),
        copies=2,
        op=cli_op,
        read=read_documents,
        documents=True,
    ),
}


# ---------------------------------------------------------------- checks


def relative_residuals(inst: Instance, xs: np.ndarray) -> np.ndarray:
    """Relative residual of every family in ``xs`` (F, m, n, n).

    Recomputed here from the planted coefficients, with the normalisation
    documented for ``verify_residual``:
    ||lhs||_F / (1 + sum_k ||A_k||_F * max(1, max_s ||X_s||_F)^N).
    """
    terms = inst.planted.equation.poly.terms
    n = inst.n
    powers = [[np.broadcast_to(np.eye(n), xs[:, 0].shape)] for _ in range(inst.m)]
    for s in range(inst.m):
        for _ in range(DEGREE):
            powers[s].append(powers[s][-1] @ xs[:, s])
    lhs = np.zeros(xs[:, 0].shape, dtype=np.complex128)
    for exps, a in terms.items():
        mono = powers[0][exps[0]]
        for s in range(1, inst.m):
            mono = mono @ powers[s][exps[s]]
        if inst.orientation is Orientation.UNKNOWNS_LEFT:
            lhs += mono @ a
        else:
            lhs += a @ mono
    coeff = sum(float(np.linalg.norm(a)) for a in terms.values())
    total_degree = max(sum(e) for e in terms)
    xmax = np.linalg.norm(xs, axis=(2, 3)).max(axis=1)
    denom = 1.0 + coeff * np.maximum(1.0, xmax) ** total_degree
    return np.linalg.norm(lhs, axis=(1, 2)) / denom


def truth_error(inst: Instance, xs: np.ndarray) -> float:
    """Relative error of the family closest to the planted unknowns."""
    truth = np.array(inst.planted.truth_unknowns)
    err = np.linalg.norm(xs - truth, axis=(2, 3)).max(axis=1)
    return float(err.min() / np.linalg.norm(truth, axis=(1, 2)).max())


@dataclass
class Checked:
    ok: bool
    reason: str
    wrong: bool = False
    residual: float = 0.0
    truth: float = 0.0
    families: int = 0


def check(workload: Workload, inst: Instance, xs: np.ndarray) -> Checked:
    resid = relative_residuals(inst, xs)
    worst = float(resid.max())
    out = Checked(True, "", residual=worst, families=len(xs))
    if not worst <= TOL_RESIDUAL:
        out.ok, out.wrong = False, True
        out.reason = f"residual {worst:.3e} > {TOL_RESIDUAL:.0e}"
    if workload.check_truth:
        out.truth = truth_error(inst, xs)
        if out.ok and not out.truth <= TRUTH_TOL:
            out.ok, out.reason = False, f"truth missed: best error {out.truth:.3e}"
    return out


# ----------------------------------------------------------------- setup


def instance_seed(seed: int, n: int, m: int, orientation: int, copy: int) -> int:
    state = np.random.SeedSequence([seed, n, m, orientation, copy]).generate_state(1)
    return int(state[0])


def plant(workload: Workload, seed: int, workdir: str) -> list[Instance]:
    out = []
    for n, m in workload.census:
        for o, orientation in enumerate(ORIENTATIONS):
            for copy in range(workload.copies):
                s = instance_seed(seed, n, m, o, copy)
                planted = instances.plant_instance(n, m, DEGREE, orientation, s)
                doc = os.path.join(workdir, f"eq-n{n}-m{m}-{orientation.value}-{copy}.json")
                if workload.documents:
                    io.dump_document(io.equation_to_document(planted.equation), doc)
                out.append(
                    Instance(n, m, orientation, s, planted, doc, (n, m) in workload.timed)
                )
    return out


def setup(workload: Workload, seed: int, workdir: str, gauge: SpeedGauge) -> list[Instance]:
    """Plant every grid instance, write documents, warm up each timed size."""
    insts = plant(workload, seed, workdir)
    warmed = set()
    for inst in insts:
        if inst.timed and (inst.n, inst.m) not in warmed:
            warmed.add((inst.n, inst.m))
            run_op(workload, inst, workdir, gauge)
    return insts


# ------------------------------------------------------------------ loop


@dataclass
class OpRecord:
    inst: Instance
    elapsed: float
    scaled: float
    checked: Checked

    @property
    def seconds(self) -> float:
        """Scaled operation time for ranking; a failed operation ranks as +inf."""
        return self.scaled if self.checked.ok else math.inf


def run_op(workload: Workload, inst: Instance, workdir: str, gauge: SpeedGauge) -> OpRecord:
    gauge.tick()
    start = time.perf_counter()
    try:
        raw = workload.op(inst, workdir)
        error = None
    except Exception as exc:  # any solver or CLI failure is a failed operation
        error = exc
    elapsed = time.perf_counter() - start
    gauge.tick()
    scaled = elapsed * gauge.factor()
    if error is not None:
        reason = f"{type(error).__name__}: {error}"[:300]
        checked = Checked(False, reason, getattr(error, "wrong", False))
        return OpRecord(inst, elapsed, scaled, checked)
    try:
        xs = workload.read(inst, raw)
    except OpFailure as exc:
        return OpRecord(inst, elapsed, scaled, Checked(False, str(exc), exc.wrong))
    return OpRecord(inst, elapsed, scaled, check(workload, inst, xs))


def closed_loop(workload, insts, seconds, workdir, gauge, tracer=None, min_ops=1) -> list[OpRecord]:
    """Repeat whole cycles over ``insts`` until ``seconds`` of operation time
    and at least ``min_ops`` operations."""
    records: list[OpRecord] = []
    busy = 0.0
    while busy < seconds or len(records) < min_ops:
        for inst in insts:
            if tracer is not None:
                tracer.op = len(records)
            rec = run_op(workload, inst, workdir, gauge)
            records.append(rec)
            busy += rec.elapsed
    return records


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def digits(error: float) -> float:
    """Decimal digits of agreement, -log10(error)."""
    return -math.log10(max(error, np.finfo(float).tiny))


# ---------------------------------------------------------------- metrics


def end_to_end(records, census_records, setup_times) -> dict:
    secs = [r.seconds for r in records]
    # worst residual of each distinct timed instance, averaged in digits: the
    # worst single family swings by orders of magnitude from seed to seed
    worst: dict[int, float] = {}
    for r in records:
        if r.checked.ok:
            worst[id(r.inst)] = max(worst.get(id(r.inst), 0.0), r.checked.residual)
    resid = statistics.fmean(digits(w) for w in worst.values()) if worst else 0.0
    return {
        "solve_s_p50": (nearest_rank(secs, 0.5), "s"),
        "solve_s_p90": (nearest_rank(secs, 0.9), "s"),
        "solved_frac": (
            sum(r.checked.ok for r in census_records) / len(census_records),
            "frac",
        ),
        "resid_digits": (resid, "digits"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def per_layer(timed: Tracer, ops, census_tracer: Tracer, setup_tracer: Tracer,
              overhead: float, truth: float) -> dict:
    own = timed.self_times()
    calls = timed.calls()
    c = timed.counters

    def per_op(value):
        return value / ops

    # every solve_multivariate attempt samples the variety once
    attempts = calls["polymatrix.sample_variety"]
    candidates = c["solver.classes_tried"] + attempts
    return {
        "solver.assemble_s": (per_op(own["solver.solve_univariate"]), "s"),
        "solver.residual_gate_s": (per_op(own["solver.verify_residual"]), "s"),
        "solver.residual_gate_calls": (per_op(calls["solver.verify_residual"]), "count"),
        "linalg.inverse_s": (per_op(own["linalg.inverse"]), "s"),
        "linalg.inverse_calls": (per_op(calls["linalg.inverse"]), "count"),
        "solver.classes_tried": (per_op(c["solver.classes_tried"]), "count"),
        "solver.families": (per_op(c["solver.families"]), "count"),
        "solver.accept_ratio": (c["solver.families"] / max(candidates, 1), "ratio"),
        "solver.truth_digits": (truth, "digits"),
        "polymatrix.detpoly_s": (per_op(own["polymatrix.det_poly_univariate"]), "s"),
        "polymatrix.detpoly_calls": (per_op(calls["polymatrix.det_poly_univariate"]), "count"),
        "polymatrix.roots_s": (per_op(own["polymatrix.poly_roots"]), "s"),
        "polymatrix.roots_found": (per_op(c["polymatrix.roots_found"]), "count"),
        "polymatrix.nullvec_s": (per_op(own["polymatrix.null_vectors_at"]), "s"),
        "polymatrix.nullvec_calls": (per_op(calls["polymatrix.null_vectors_at"]), "count"),
        "polymatrix.nullvec_hit_ratio": (
            c["polymatrix.nullvec_hits"] / max(calls["polymatrix.null_vectors_at"], 1),
            "ratio",
        ),
        "polymatrix.evaluate_calls": (per_op(c["polymatrix.evaluate_calls"]), "count"),
        "polymatrix.variety_s": (per_op(own["polymatrix.sample_variety"]), "s"),
        "polymatrix.slices": (per_op(c["polymatrix.slices"]), "count"),
        "polymatrix.variety_points": (per_op(c["polymatrix.variety_points"]), "count"),
        "polymatrix.identically_singular": (
            census_tracer.counters["polymatrix.det_poly_univariate!IdenticallySingular"],
            "count",
        ),
        "solver.greedy_s": (per_op(own["solver.solve_multivariate"]), "s"),
        "solver.family_s": (per_op(own["solver.family_from_points"]), "s"),
        "solver.attempts": (per_op(attempts), "count"),
        "io.parse_s": (
            per_op(
                own["io.load_document"]
                + own["io.equation_from_document"]
                + own["io.solution_from_document"]
            ),
            "s",
        ),
        "io.serialize_s": (
            per_op(
                own["io.dump_document"]
                + own["io.solution_to_document"]
                + own["io.equation_to_document"]
            ),
            "s",
        ),
        "io.doc_bytes": (per_op(c["io.doc_bytes"]), "B"),
        "cli.solve_s": (per_op(own["cli.cmd_solve"]), "s"),
        "cli.verify_s": (per_op(own["cli.cmd_verify"]), "s"),
        "cli.exit_1": (census_tracer.counters["cli.exit_1"], "count"),
        "cli.exit_2": (census_tracer.counters["cli.exit_2"], "count"),
        "cli.exit_3": (census_tracer.counters["cli.exit_3"], "count"),
        "instances.plant_s": (setup_tracer.self_times()["instances.plant_instance"], "s"),
        "trace.overhead_frac": (overhead, "frac"),
    }


# -------------------------------------------------------------------- run


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _mean_scaled(records) -> float:
    return sum(r.scaled for r in records) / len(records)


def _row(rec: OpRecord, phase: str) -> dict:
    return {
        "n": rec.inst.n,
        "m": rec.inst.m,
        "orientation": rec.inst.orientation.value,
        "seed": rec.inst.seed,
        "phase": phase,
        "outcome": "ok" if rec.checked.ok else "fail",
        "reason": rec.checked.reason,
        "families": rec.checked.families,
        "residual": rec.checked.residual,
        "seconds": rec.elapsed,
        "scaled_seconds": rec.scaled,
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    """One benchmark run; returns the result object and writes rows/spans files."""
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload.name}-seed{seed}-trace{int(trace)}")
    workdir = f"{stem}.work"
    os.makedirs(workdir, exist_ok=True)
    setup_tracer, census_tracer, timed_tracer = Tracer(), Tracer(), Tracer()
    gauge = SpeedGauge()

    def traced_by(tracer):
        return tracer.installed() if trace else contextlib.nullcontext()

    try:
        setup_times = []
        for _ in range(1 if trace else SETUP_REPEATS):
            gauge.tick()
            start = time.perf_counter()
            with traced_by(setup_tracer):
                insts = setup(workload, seed, workdir, gauge)
            elapsed = time.perf_counter() - start
            gauge.tick()
            setup_times.append(elapsed * gauge.factor())
        census_records = []
        with traced_by(census_tracer):
            for k, inst in enumerate(insts):
                census_tracer.op = k
                census_records.append(run_op(workload, inst, workdir, gauge))
        # An instance that gives no answer has no solve time to measure: it
        # stays a failure in the census rows and in solved_frac, and only the
        # solved instances of the timed cells are repeated.
        solved = [i for i, r in zip(insts, census_records) if i.timed and r.checked.ok]
        plain, traced = [], []
        if not solved:
            records = [r for i, r in zip(insts, census_records) if i.timed]
        elif trace:
            plain = closed_loop(workload, solved, seconds / 2, workdir, gauge)
            with timed_tracer.installed():
                traced = closed_loop(workload, solved, seconds / 2, workdir, gauge, timed_tracer)
            records = plain + traced
        else:
            records = closed_loop(workload, solved, seconds, workdir, gauge, min_ops=MIN_OPS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r.checked.ok for r in records)
    # a census instance may fail to give an answer (a known defect), but no
    # answer it does give may be wrong
    wrong = any(r.checked.wrong for r in census_records)
    truth = max((r.checked.truth for r in records), default=0.0)
    if trace:
        overhead = _mean_scaled(traced) / _mean_scaled(plain) - 1.0 if traced else 0.0
        metrics = per_layer(
            timed_tracer, max(len(traced), 1), census_tracer, setup_tracer, overhead,
            digits(truth) if workload.check_truth else 0.0,
        )
    else:
        metrics = end_to_end(records, census_records, setup_times)

    secs = sorted(r.seconds for r in records)
    summary = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "ops": len(records),
        "beyond_p90": len(secs) - math.ceil(0.9 * len(secs)),
        "census": len(census_records),
        "census_failed": sum(not r.checked.ok for r in census_records),
        "wall_s_p50": nearest_rank([r.elapsed if r.checked.ok else math.inf for r in records], 0.5),
        "speed_factor_p50": statistics.median(REFERENCE_S / t for t in gauge.taken),
        "gauge_samples": len(gauge.taken),
        "env": environment(),
    }
    with open(f"{stem}.rows.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"summary": summary}) + "\n")
        for rec in census_records:
            fh.write(json.dumps(_row(rec, "census")) + "\n")
        for rec in records:
            if not rec.checked.ok:
                fh.write(json.dumps(_row(rec, "timed")) + "\n")
    if trace:
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for phase, tracer in (("setup", setup_tracer), ("census", census_tracer), ("timed", timed_tracer)):
                for name, start, end, parent, op in tracer.spans:
                    fh.write(json.dumps([phase, name, start, end, parent, op]) + "\n")
    return {
        "summary": summary,
        "result": {
            "correct": failed == 0 and not wrong,
            "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }

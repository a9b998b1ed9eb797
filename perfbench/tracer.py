"""Spans and counts around the calls into each ``sagd`` layer.

The wrappers are installed from outside the package, at the names the
callers actually look up: the modules use ``from .x import y``, so a
function is patched in every module that imported it, not only where it is
defined.  Each span records its name, start, end and parent in flat arrays
that stay in memory until the operation ends; self time is a span's
duration minus the durations of its child spans.

The two hottest leaves, ``SeededRng.next_u64`` and ``randint_below``, are
counted without spans: at about 1 us a call, a span would cost more than
the call it measures.
"""

import os
import time
from array import array
from collections import Counter

import numpy as np

import sagd.cli
import sagd.complexity
import sagd.numerics
import sagd.planner
import sagd.problem
import sagd.sketch_oracle
import sagd.solver
import sagd.verification

SKETCH_ORACLE_FUNCTIONS = (
    "enumerate_sampling",
    "oracle_expected_projection",
    "oracle_bias_correction",
    "oracle_sketch_residual",
    "oracle_residual_eigenvalues",
    "oracle_smoothness_max_term",
    "oracle_expected_smoothness",
    "oracle_expected_direction",
)


class Tracer:
    """Spans, in flat arrays indexed by span, plus named counts."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.starts = array("d")
        self.ends = array("d")
        self.ids = array("i")
        self.parents = array("q")
        self.stack = [-1]
        self.counts = Counter()
        self.words = [0]  # next_u64 calls, in a cell for speed

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span called ``name``.

        ``after(args, result)`` runs once the span has ended, to record
        counts.
        """
        nid = self._nid(name)
        starts, ends, ids, parents, stack = self.starts, self.ends, self.ids, self.parents, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, **kw):
        setattr(owner, attr, self.span(name, getattr(owner, attr), **kw))

    def install(self):
        """Patch every layer boundary of the ``sagd`` package."""
        counts = self.counts

        def bump(key, amount=1):
            counts[key] += amount

        # numerics: counted RNG words, spanned sampler and dense linear algebra
        rng_cls = sagd.numerics.SeededRng
        next_u64 = rng_cls.next_u64
        randint_below = rng_cls.randint_below
        words = self.words

        def counted_next_u64(rng):
            words[0] += 1
            return next_u64(rng)

        def counted_randint_below(rng, n):
            before = words[0]
            out = randint_below(rng, n)
            counts["rng.randint_below.calls"] += 1
            counts["rng.randint_below.words"] += words[0] - before
            return out

        rng_cls.next_u64 = counted_next_u64
        rng_cls.randint_below = counted_randint_below

        subsets = [0]

        def count_subset(_args, _result):
            subsets[0] += 1

        self.patch(sagd.solver, "sample_subset", "numerics.sample_subset", after=count_subset)
        for mod in (sagd.problem, sagd.sketch_oracle):
            self.patch(mod, "symmetric_eigen", "numerics.linalg")
        self.patch(sagd.problem, "solve_spd", "numerics.linalg")

        # problem
        for mod in (sagd.problem, sagd.solver):
            self.patch(mod, "full_grad", "problem.full_grad")
        for mod in (sagd.cli, sagd.problem, sagd.solver):
            self.patch(mod, "smoothness_profile", "problem.smoothness_profile")
        self.patch(sagd.cli, "exact_solution", "problem.exact_solution")
        self.patch(sagd.cli, "normalize_rows", "problem.normalize_rows")
        grad_fn = sagd.solver.gradient_fn
        batch_fn = sagd.solver.batch_gradient_fn
        init_table_id = self._nid("solver.init_table")

        def traced_gradient_fn(data, loss):
            # the n evaluations that fill the table at x0 run outside the
            # iteration loop, so they get a name of their own
            parent = self.stack[-1]
            in_fill = parent >= 0 and self.ids[parent] == init_table_id
            name = "problem.grad.table_fill" if in_fill else "problem.grad"
            return self.span(name, grad_fn(data, loss))

        def traced_batch_gradient_fn(data, loss):
            batch = batch_fn(data, loss)
            if batch is None:
                return None
            return self.span(
                "problem.batch_grad", batch,
                after=lambda args, _: bump("problem.batch_grad.rows", len(args[1])),
            )

        sagd.solver.gradient_fn = traced_gradient_fn
        sagd.solver.batch_gradient_fn = traced_batch_gradient_fn

        # complexity and planner
        for mod in (sagd.planner, sagd.complexity):
            self.patch(mod, "total_complexity", "complexity.total_complexity")
        self.patch(
            sagd.cli, "optimal_plan", "planner.optimal_plan",
            after=lambda _, plan: bump("planner.optimal_plan.candidates", len(plan.all_candidates)),
        )

        # solver: a step is a batch step when it sampled a subset
        step = self.span("solver.sagd_step.single", sagd.solver.sagd_step)
        batch_step_id = self._nid("solver.sagd_step.batch")

        def traced_sagd_step(*args, **kwargs):
            i, before = len(self.ids), subsets[0]
            result = step(*args, **kwargs)
            if subsets[0] != before:
                self.ids[i] = batch_step_id
            return result

        sagd.solver.sagd_step = traced_sagd_step
        for attr in ("write_column", "write_columns", "refresh"):
            self.patch(sagd.solver.GradientTable, attr, f"solver.table.{attr}")
        self.patch(sagd.solver, "init_table", "solver.init_table")
        self.patch(sagd.cli, "run_solver", "solver.run")

        # data_io
        for attr in ("synth_gaussian", "synth_uniform"):
            self.patch(sagd.cli, attr, "data_io.synth")
        self.patch(
            sagd.cli, "parse_libsvm", "data_io.parse_libsvm",
            after=lambda args, _: bump("data_io.parse_libsvm.bytes", os.path.getsize(args[0])),
        )
        self.patch(
            sagd.cli, "write_results_csv", "data_io.write_results_csv",
            after=lambda args, _: bump("data_io.write_results_csv.bytes", os.path.getsize(args[1])),
        )

        # verification and the enumeration oracles
        self.patch(sagd.verification, "check_constants_against_oracles",
                   "verification.constants_vs_oracles")
        self.patch(sagd.verification, "check_envelope_shapes", "verification.envelope_shapes")
        self.patch(
            sagd.cli, "run_all", "verification.run_all",
            after=lambda _, results: bump("verification.checks", sum(r.checks for r in results)),
        )
        for attr in SKETCH_ORACLE_FUNCTIONS:
            self.patch(sagd.sketch_oracle, attr, f"sketch_oracle.{attr}")

    def layer_metrics(self, cli_seconds):
        """Per-layer metrics of everything traced so far.

        ``cli_seconds`` maps each subcommand to the wall time of its
        ``cli.main`` calls, measured by the caller.  Layers an operation
        never entered read 0.
        """
        ids = np.array(self.ids, dtype=np.int64)
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)

        def nid(name):
            return self._ids.get(name)

        def c(name):
            i = nid(name)
            return 0 if i is None else int(calls[i])

        def s(name):
            i = nid(name)
            return 0.0 if i is None else float(total[i])

        def per(num_s, den, scale=1e6):
            return num_s * scale / den if den else 0.0

        # sketch_oracle.s counts only outermost oracle spans: the oracles nest
        oracle_ids = [self._ids[f"sketch_oracle.{a}"] for a in SKETCH_ORACLE_FUNCTIONS]
        is_oracle = np.isin(ids, oracle_ids)
        parent_ids = np.where(has_parent, ids[np.maximum(parents, 0)], -1)
        outer_oracle = is_oracle & ~np.isin(parent_ids, oracle_ids)
        table_self = sum(float(self_s[self._ids[f"solver.table.{a}"]])
                         for a in ("write_column", "write_columns", "refresh"))
        batch_steps = c("solver.sagd_step.batch")
        single_steps = c("solver.sagd_step.single")
        counts = self.counts
        rows = counts["problem.batch_grad.rows"]
        return {
            "numerics.sample_subset.calls": c("numerics.sample_subset"),
            "numerics.sample_subset.us_per_call": per(s("numerics.sample_subset"),
                                                      c("numerics.sample_subset")),
            "numerics.rng.words": self.words[0],
            "numerics.rng.words_per_index": (
                counts["rng.randint_below.words"] / counts["rng.randint_below.calls"]
                if counts["rng.randint_below.calls"] else 0.0
            ),
            "numerics.linalg.s": s("numerics.linalg"),
            "problem.grad.calls": c("problem.grad"),
            "problem.grad.us_per_call": per(s("problem.grad"), c("problem.grad")),
            "problem.grad.table_fill.calls": c("problem.grad.table_fill"),
            "problem.batch_grad.calls": c("problem.batch_grad"),
            "problem.batch_grad.rows": rows,
            "problem.batch_grad.us_per_row": per(s("problem.batch_grad"), rows),
            "problem.full_grad.calls": c("problem.full_grad"),
            "problem.full_grad.s": s("problem.full_grad"),
            "problem.exact_solution.s": s("problem.exact_solution"),
            "problem.smoothness_profile.calls": c("problem.smoothness_profile"),
            "problem.smoothness_profile.s": s("problem.smoothness_profile"),
            "problem.normalize_rows.s": s("problem.normalize_rows"),
            "complexity.total_complexity.calls": c("complexity.total_complexity"),
            "complexity.total_complexity.us_per_call": per(s("complexity.total_complexity"),
                                                           c("complexity.total_complexity")),
            "planner.optimal_plan.calls": c("planner.optimal_plan"),
            "planner.optimal_plan.s": s("planner.optimal_plan"),
            "planner.optimal_plan.candidates": counts["planner.optimal_plan.candidates"],
            "solver.sagd_step.batch.calls": batch_steps,
            "solver.sagd_step.batch.us_per_step": per(s("solver.sagd_step.batch"), batch_steps),
            "solver.sagd_step.single.calls": single_steps,
            "solver.sagd_step.single.us_per_step": per(s("solver.sagd_step.single"), single_steps),
            "solver.batch_fraction": per(batch_steps, batch_steps + single_steps, 1.0),
            "solver.table.write_column.calls": c("solver.table.write_column"),
            "solver.table.write_columns.calls": c("solver.table.write_columns"),
            "solver.table.refresh.calls": c("solver.table.refresh"),
            "solver.table.self_s": table_self,
            "solver.init_table.s": s("solver.init_table"),
            "data_io.synth.s": s("data_io.synth"),
            "data_io.parse_libsvm.s": s("data_io.parse_libsvm"),
            "data_io.parse_libsvm.bytes": counts["data_io.parse_libsvm.bytes"],
            "data_io.write_results_csv.s": s("data_io.write_results_csv"),
            "data_io.write_results_csv.bytes": counts["data_io.write_results_csv.bytes"],
            "verification.constants_vs_oracles.s": s("verification.constants_vs_oracles"),
            "verification.envelope_shapes.s": s("verification.envelope_shapes"),
            "verification.checks": counts["verification.checks"],
            "sketch_oracle.calls": int(is_oracle.sum()),
            "sketch_oracle.s": float(dur[outer_oracle].sum()),
            **{f"cli.{cmd}.s": cli_seconds.get(cmd, 0.0)
               for cmd in ("plan", "run", "sweep", "verify")},
        }


def wrapper_cost_us(repeats=100_000):
    """Cost of one span around an empty call, in us: the best of three
    timings of a wrapped no-op minus the bare no-op."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.span("calibration", noop)

    def best(fn):
        times = []
        for _ in range(3):
            del tracer.starts[:], tracer.ends[:], tracer.ids[:], tracer.parents[:]
            t = time.perf_counter()
            for _ in range(repeats):
                fn()
            times.append(time.perf_counter() - t)
        return min(times)

    return max(best(wrapped) - best(noop), 0.0) * 1e6 / repeats

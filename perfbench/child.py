"""One pass of a perfbench workload, in a fresh interpreter.

``run.py`` starts this script once per pass, because the engine keeps
process-wide caches (``catalog._BUILDS``, ``FiniteGroup._subgroups`` and
the lattice attached to each group).  The script imports ``fusionsys``
from ``src/`` of the checkout it lives in, generates the inputs from the
seed, runs the workload's calls in a fixed order, checks every answer
and prints one JSON line with the timings, spans and checks.

    python3 perfbench/child.py --workload c3-exhaustive --seed 1 --trace 0

Calls are ordered so that each one is timed on its own layer's work:
the work it depends on is already cached by the call before it.

The host's speed drifts by up to twofold within seconds, so a wall-clock
timer interrupts the process every 10 ms to time a small fixed reference
loop.  Times are reported net of that loop, and ``run.py`` rescales them
by the speed the loop saw (see ``HostSpeed``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import sys
import time
from contextlib import contextmanager

import answers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def now() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so run.py can time the
    # set-up of this process from before it was spawned.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


SAMPLE_PERIOD_S = 0.01
CALL_MARGIN_S = 0.1  # a span's speed also uses the samples this close to it
# Time of one reference loop on an idle host (the fastest seen on a
# 2-vCPU Xeon guest with Python 3.11).  It defines the normalised
# second: a host running the loop at this speed has speed 1.
REFERENCE_S = 0.00013
_REFERENCE_TABLE = {(i, i + 1): i for i in range(2000)}
_REFERENCE_KEYS = tuple(_REFERENCE_TABLE)


def reference_work() -> int:
    """Fixed tuple hashing and dict lookups, like the engine's hot loops.

    It allocates no object the garbage collector tracks, so sampling does
    not move the engine's collections.
    """
    acc = 0
    table = _REFERENCE_TABLE
    for key in _REFERENCE_KEYS:
        acc += table[key] + key[0]
    return acc


class HostSpeed:
    """Samples how fast the host runs Python, from inside the process.

    A timer signal runs the reference loop every ``SAMPLE_PERIOD_S`` of
    wall time, between the engine's bytecodes, so the samples see the
    same slowdowns as the work around them.  ``clock`` excludes the time
    spent sampling, and samples are stamped on that clock.  ``speed`` is
    the mean of REFERENCE_S / sample time over a window: the share of
    idle-host speed the work there got.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self.busy = False
        for _ in range(3):  # let the interpreter specialise the loop first
            reference_work()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def _sample(self, signum=None, frame=None) -> None:
        if self.busy:  # a signal that lands inside a sample is dropped
            return
        self.busy = True
        start = now()
        reference_work()
        elapsed = now() - start
        self.samples.append((start - self.spent, elapsed))
        self.spent += elapsed
        self.busy = False

    def clock(self) -> float:
        return now() - self.spent

    def speed(self, start: float, end: float) -> float:
        """Mean speed over a window of ``clock`` time; at least the five
        samples nearest to it."""
        while len(self.samples) < 5:
            self._sample()
        window = [d for t, d in self.samples if start <= t <= end]
        if len(window) < 5:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:5]
            window = [d for _, d in nearest]
        return sum(REFERENCE_S / d for d in window) / len(window)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


class CallFailed(Exception):
    """A timed call raised; the rest of its group is skipped."""


class Pass:
    """Times the calls of one pass, records spans and checks answers."""

    def __init__(self, clock, traced: bool):
        self.clock = clock
        self.traced = traced
        self.calls: list[tuple[str, float, float]] = []
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stack: list[int] = []
        self.failed_calls: set[int] = set()
        self.failures: list[str] = []
        self.observed: dict[str, object] = {}
        self.counts = {
            "subgroups_n": 0,
            "morphisms_n": 0,
            "factorizations_n": 0,
            "krs_n": 0,
            "krs_constructive_n": 0,
        }

    @contextmanager
    def span(self, name: str):
        """A span for a workload, group or entry; a failed call ends it."""
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        if self.traced:
            self.spans.append((sid, parent, name, self.clock(), 0.0))
            self.stack.append(sid)
        try:
            yield
        except CallFailed:
            pass
        finally:
            if self.traced:
                self.stack.pop()
                s = self.spans[sid]
                self.spans[sid] = (s[0], s[1], s[2], s[3], self.clock())

    def call(self, name: str, fn, *args, **kwargs):
        """Time one call into a layer; its checks follow through ``check``."""
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # any engine error counts as a failed call
            self._record(name, start, self.clock())
            self.fail(f"{name} raised {type(exc).__name__}: {exc}")
            raise CallFailed from exc
        self._record(name, start, self.clock())
        return result

    def _record(self, name: str, start: float, end: float) -> None:
        self.calls.append((name, start, end))
        if self.traced:
            parent = self.stack[-1] if self.stack else -1
            self.spans.append((len(self.spans), parent, name, start, end))

    def fail(self, message: str) -> None:
        self.failed_calls.add(len(self.calls) - 1)
        self.failures.append(message)

    def check(self, what: str, got, want) -> None:
        """Compare an answer of the latest call with the table."""
        if got != want:
            self.fail(f"{self.calls[-1][0]}: {what} = {got!r}, want {want!r}")

    def observe(self, key: str, value) -> None:
        """A value with no derivation: it must repeat across passes and runs."""
        self.observed[key] = value


# ---------------------------------------------------------------------------
# inputs


def relabel(points: int, gens, rng: random.Random):
    """The generator cycles under a random relabelling of the points."""
    image = list(range(1, points + 1))
    rng.shuffle(image)
    moved = [[[image[x - 1] for x in cyc] for cyc in gen] for gen in gens]
    return moved, image


def make_inputs(workload: str, seed: int, workdir: str, smoke: bool) -> dict:
    """Everything the engine receives, generated from the seed."""
    rng = random.Random(seed)
    if workload == "catalog-reports":
        names = ["inner-c2c2"] if smoke else list(answers.CATALOG)
        files, pairs = {}, {}
        for name in names:
            points, gens, _, _ = answers.CATALOG[name]
            moved, _ = relabel(points, gens, rng)
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"points": points, "generators": moved}, fh)
            files[name] = path
            if name in answers.KRS_ENTRIES:
                pairs[name] = rng.sample(range(answers.FACTORIZATION_COUNTS[name]), 2)
        return {"names": names, "files": files, "pairs": pairs}
    if workload == "c3-exhaustive":
        points, gens, _ = answers.C3_CUBED
        moved, image = relabel(points, gens, rng)
        swap = [[image[x - 1] for x in cyc] for cyc in answers.C3_SWAP]
        count = answers.C3_ANSWERS["factorizations"]
        pairs = [rng.sample(range(count), 2) for _ in range(answers.C3_KRS_PAIRS)]
        omega_pair = rng.sample(range(answers.C3_ANSWERS["factorizations_omega"]), 2)
        return {
            "points": points,
            "generators": moved,
            "swap": swap,
            "pairs": pairs,
            "omega_pair": omega_pair,
        }
    if workload == "p2-lattice":
        names = ["c2^5"] if smoke else list(answers.P2_GROUPS)
        groups = {}
        for name in names:
            spec = answers.P2_GROUPS[name]
            groups[name] = relabel(spec["points"], spec["generators"], rng)[0]
        return {"groups": groups}
    raise SystemExit(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# workloads


def catalog_reports(p: Pass, inputs: dict, workdir: str) -> None:
    """The CLI reports for every catalog entry, through ``cli.run``."""
    from fusionsys import cli

    def run(kind: str, name: str, argv: list[str]) -> dict:
        code, report = p.call(f"cli.{kind}", cli.run, argv)
        p.check("exit code", code, 0)
        if "results" not in report:
            p.fail(f"cli.{kind} {name}: no results: {report.get('error')}")
            raise CallFailed
        p.observe(f"hash/{name}/{kind}", report["hash"])
        return report["results"]

    for name in inputs["names"]:
        points, _, prime, expected = answers.CATALOG[name]
        parts = answers.PARTS[name]
        src = ["--in", inputs["files"][name], "--p", str(prime)]
        with p.span(name):
            res = run("fusion_of_group", name, ["fusion", "of-group", *src])
            p.check("p", res["fusion"]["p"], prime)
            p.check("|S|", len(res["fusion"]["subgroups"][-1]), expected["sylow_order"])

            res = run("analyze", name, ["analyze", *src])
            p.check("|S|", res["base_order"], expected["sylow_order"])
            p.check("saturated", res["saturated"], expected["saturated"])
            p.check("|Z|", len(res["center"]), expected["center"])
            p.check("|foc|", len(res["focal"]), expected["focal"])
            p.counts["subgroups_n"] += res["subgroups"]
            p.counts["morphisms_n"] += res["morphisms"]

            res = run("factorize", name, ["factorize", *src])
            p.check("parts", res["parts"], parts)
            p.check("indecomposable", res["indecomposable"], parts == 1)

            if name in inputs["pairs"]:
                res = run(
                    "factorize_exhaustive", name, ["factorize", *src, "--exhaustive"]
                )
                p.check("factorizations", res["count"], answers.FACTORIZATION_COUNTS[name])
                p.counts["factorizations_n"] += res["count"]
                facts = res["factorizations"]
                paths = []
                for k, idx in enumerate(inputs["pairs"][name]):
                    path = os.path.join(workdir, f"{name}.fact{k}.json")
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump({"parts": [q["base"] for q in facts[idx]["parts"]]}, fh)
                    paths.append(path)
                res = run(
                    "krs", name,
                    ["krs", *src, "--fact1", paths[0], "--fact2", paths[1]],
                )
                p.check("parts", res["parts"], parts)
                p.check("sigma", sorted(res["certificate"]["sigma"]), list(range(parts)))
                p.counts["krs_n"] += 1
                p.counts["krs_constructive_n"] += bool(res["certificate"]["constructive"])

            if name in answers.GOLDSCHMIDT:
                res = run("goldschmidt", name, ["goldschmidt", "--in", inputs["files"][name]])
                p.check("parts", len(res["parts"]), parts)
                total = 1
                for order in res["closure_orders"]:
                    total *= order
                p.check("product of closure orders", total, expected["order"])


def _check_certificate(p: Pass, cert, fact1, fact2, allowed) -> None:
    """alpha carries part i of the first factorization onto part sigma(i)
    of the second and, when ``allowed`` is given, is one of the
    enumerated normal automorphisms."""
    p.counts["krs_n"] += 1
    p.counts["krs_constructive_n"] += bool(cert.constructive)
    images = cert.alpha.images
    if allowed is not None:
        p.check("alpha is a normal automorphism", images in allowed, True)
    for i, part in enumerate(fact1.parts):
        moved = sorted(images[x] for x in part.base.members)
        target = list(fact2.parts[cert.sigma[i]].base.members)
        p.check(f"alpha(part {i})", moved, target)


def c3_exhaustive(p: Pass, inputs: dict, smoke: bool) -> None:
    """Every factorization, automorphism and certificate of C3^3."""
    from fusionsys import (
        FiniteGroup, OmegaContext, check_morphism, cycles_to_perm, factorize_all,
        fusion_automorphisms, fusion_of_group, krs_certificate, normal_automorphisms,
    )

    want = answers.C3_ANSWERS
    points = inputs["points"]
    perms = [cycles_to_perm(g, points) for g in inputs["generators"]]
    with p.span("c3^3"):
        G = p.call("groups.closure", FiniteGroup.from_permutations, perms,
                   points=points, prime_hint=3)
        p.check("|G|", G.order, want["order"])
        F = p.call("fusion.table", fusion_of_group, G, 3)
        p.check("subgroups", len(F.lattice.subs), want["subgroups"])
        p.counts["subgroups_n"] += len(F.lattice.subs)
        p.counts["morphisms_n"] += F.morphism_count()

        if not smoke:
            facts = p.call("factor.factorize_all", factorize_all, F)
            p.check("factorizations", len(facts), want["factorizations"])
            p.check("part orders", {q.base.order for f in facts for q in f.parts},
                    {want["part_order"]})
            p.counts["factorizations_n"] += len(facts)
            auts = p.call("factor.fusion_automorphisms", fusion_automorphisms, F)
            p.check("fusion automorphisms", len(auts), want["fusion_automorphisms"])
            normal = p.call("factor.normal_automorphisms", normal_automorphisms, F)
            p.check("normal automorphisms", len(normal), want["normal_automorphisms"])
            allowed = {m.images for m in normal}
            for i, j in inputs["pairs"]:
                cert = p.call("factor.krs", krs_certificate, F, facts[i], facts[j])
                _check_certificate(p, cert, facts[i], facts[j], allowed)

        # Omega acts on the base by conjugation with the relabelled swap.
        swap = cycles_to_perm(inputs["swap"], points)
        index = {perm: x for x, perm in enumerate(F.base.perms)}
        images = tuple(
            index[tuple(swap[q[swap[v]]] for v in range(points))]
            for q in F.base.perms
        )
        omega = p.call(
            "factor.omega_context",
            lambda: OmegaContext.from_morphisms(F, [check_morphism(F, F, images)]),
        )
        p.check("|Omega|", len(omega.closure), want["omega_order"])
        facts = p.call("factor.factorize_all_omega", factorize_all, F, omega)
        p.check("factorizations", len(facts), want["factorizations_omega"])
        p.check("parts invariant", all(
            {images[x] for x in q.base.members} == q.base.member_set
            for f in facts for q in f.parts
        ), True)
        p.counts["factorizations_n"] += len(facts)
        allowed = None
        if not smoke:
            normal = p.call(
                "factor.normal_automorphisms_omega", normal_automorphisms, F, omega
            )
            p.check("normal automorphisms", len(normal), want["normal_automorphisms_omega"])
            allowed = {m.images for m in normal}
            p.check("commute with Omega", all(
                tuple(m.images[v] for v in images) == tuple(images[v] for v in m.images)
                for m in normal
            ), True)
        i, j = inputs["omega_pair"]
        cert = p.call("factor.krs_omega", krs_certificate, F, facts[i], facts[j], omega)
        _check_certificate(p, cert, facts[i], facts[j], allowed)


def p2_lattice(p: Pass, inputs: dict, smoke: bool) -> None:
    """Lattices of 374-389 subgroups and their fusion tables at p = 2."""
    from fusionsys import (
        FiniteGroup, alperin_generators, center_of, cycles_to_perm,
        factorize, focal_of, fusion_invariants, fusion_of_group, generated_fusion,
        is_product_decomposition, saturation_report, subgroups, sylow,
    )

    for name, gens in inputs["groups"].items():
        spec = answers.P2_GROUPS[name]
        want = spec["answers"]
        points = spec["points"]
        perms = [cycles_to_perm(g, points) for g in gens]
        with p.span(name):
            G = p.call("groups.closure", FiniteGroup.from_permutations, perms,
                       points=points, prime_hint=2)
            p.check("|G|", G.order, want["order"])
            S = p.call("groups.sylow", sylow, G, 2)
            p.check("|S|", S.order, want["sylow_order"])
            subs = p.call("groups.subgroups", lambda: subgroups(S.as_group()[0]))
            p.counts["subgroups_n"] += len(subs)
            if "subgroups" in want:
                p.check("subgroups", len(subs), want["subgroups"])
            else:
                p.observe(f"{name}/subgroups", len(subs))
            F = p.call("fusion.table", fusion_of_group, G, 2, S)
            p.counts["morphisms_n"] += F.morphism_count()
            if "morphisms" in want:
                p.check("morphisms", F.morphism_count(), want["morphisms"])
            else:
                p.observe(f"{name}/morphisms", F.morphism_count())
            report = p.call("fusion.saturation", saturation_report, F)
            p.check("saturated", report.verdict, True)
            if smoke:
                continue
            focal = p.call("fusion.focal", focal_of, F)
            p.check("|foc|", focal.order, want["focal"])
            center = p.call("fusion.center", center_of, F)
            p.check("|Z|", center.order, want["center"])
            inv = p.call("fusion.invariants", fusion_invariants, F)
            p.check("|Z|, |foc|", (inv.center.order, inv.focal.order),
                    (want["center"], want["focal"]))
            p.observe(f"{name}/centric", len(inv.centric))

            if "parts" in want:
                fact = p.call("factor.factorize", factorize, F)
                p.check("parts", len(fact.parts), want["parts"])
                if name == "d8xd8":
                    ok = p.call("morphisms.product_check", is_product_decomposition,
                                F, list(fact.parts))
                    p.check("product decomposition", ok, True)
            else:
                gens_f = p.call("fusion.alperin", alperin_generators, F)
                homs = [h for _, hs in gens_f for h in hs]
                p.observe(f"{name}/alperin_generators", len(homs))
                regenerated = p.call("fusion.generate", generated_fusion, F.base, homs, p=2)
                p.check("regenerated table", regenerated.map_sets == F.map_sets, True)


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if os.environ.get("FUSIONSYS_GUARDRAIL"):
        print("FUSIONSYS_GUARDRAIL is set; the benchmark runs at default limits",
              file=sys.stderr)
        return 2
    cold = "fusionsys" not in sys.modules
    host = HostSpeed()
    sys.path.insert(0, SRC)
    import fusionsys
    from fusionsys import catalog, guardrails

    if os.path.dirname(os.path.abspath(fusionsys.__file__)) != os.path.join(SRC, "fusionsys"):
        print(f"imported fusionsys from {fusionsys.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, "perfbench", "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs = make_inputs(args.workload, args.seed, workdir, args.smoke)
        setup_done, setup_sampling = now(), host.spent
        record = {
            "setup_done": setup_done,
            "setup_sampling_s": setup_sampling,
            "setup_speed": host.speed(0.0, host.clock()),
            "guardrails": vars(guardrails.active()),
        }
        if not args.setup_only:
            p = Pass(host.clock, bool(args.trace))
            if not cold or catalog._BUILDS or guardrails.active() != guardrails.Guardrails():
                p.failures.append("pass did not start cold at default guardrails")
            start = host.clock()
            with p.span(args.workload):
                if args.workload == "catalog-reports":
                    catalog_reports(p, inputs, workdir)
                elif args.workload == "c3-exhaustive":
                    c3_exhaustive(p, inputs, args.smoke)
                else:
                    p2_lattice(p, inputs, args.smoke)
            end = host.clock()
            # a call's or span's speed comes from the samples around it
            calls = [(name, b - a, host.speed(a - CALL_MARGIN_S, b + CALL_MARGIN_S))
                     for name, a, b in p.calls]
            spans = [(*span, host.speed(span[3] - CALL_MARGIN_S, span[4] + CALL_MARGIN_S))
                     for span in p.spans]
            record.update(
                wall_s=end - start,
                speed=host.speed(start, end),
                samples=sum(start <= t <= end for t, _ in host.samples),
                calls=calls,
                spans=spans,
                failed_calls=len(p.failed_calls),
                failures=p.failures,
                observed=p.observed,
                counts=p.counts,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            )
    finally:
        host.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with ``-s`` to see
them live) and enforces the stated runtime budget where one exists.
"""

import itertools
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from fusionsys import catalog, cli, serialize, verify
from fusionsys.errors import NotCommuting
from fusionsys.fusion import (
    center_of,
    focal_of,
    fusion_equal,
    saturation_report,
)
from fusionsys.morphisms import Subsystem, commute_check, product
from fusionsys.factor import (
    aut_structure,
    factorize,
    factorize_all,
    fitting_factorize,
    fusion_automorphisms,
    goldschmidt_factor,
    krs_certificate,
    normal_automorphisms,
)
from fusionsys.verify import catalog_normal_endos, axis_subsystems, product_oracle_pair


@contextmanager
def criterion(number, name, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget is not None and elapsed > budget:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL (over budget: {elapsed:.1f}s)")
        raise AssertionError(f"{name} exceeded {budget}s budget: {elapsed:.1f}s")
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.1f}s)")


def test_criterion_01_twisted_triple_commuting():
    with criterion(1, "twisted-triple-commuting", budget=60):
        F, Fbar, subs = axis_subsystems()
        # pairwise in the smaller ambient: all three pairs commute
        for a, b in itertools.combinations(range(3), 2):
            commute_check(F, [subs[a], subs[b]])
        # the triple does not commute there
        with pytest.raises(NotCommuting):
            commute_check(F, subs)
        # claim (b): the inner product of the first two commutes with the
        # third upstairs but not downstairs
        r12 = commute_check(F, subs[:2])
        e12 = Subsystem(r12.inner_base, r12.inner)
        commute_check(Fbar, [e12, subs[2]])
        with pytest.raises(NotCommuting):
            commute_check(F, [e12, subs[2]])


def test_criterion_02_saturation_battery():
    with criterion(2, "saturation-battery"):
        names = catalog.SATURATION_BATTERY
        assert len(names) >= 8
        for name in names:
            assert saturation_report(catalog.built(name).fusion).verdict, name


def test_criterion_03_product_oracle():
    with criterion(3, "product-oracle"):
        assert len(catalog.PRODUCT_PAIRS) >= 3
        for n1, n2 in catalog.PRODUCT_PAIRS:
            big, F1, F2 = product_oracle_pair(n1, n2)
            assert fusion_equal(product([F1, F2]).product, big), (n1, n2)


def test_criterion_04_lemma_suite():
    with criterion(4, "lemma-suite"):
        for result in verify.run_suite("all"):
            assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_05_fitting_factorization():
    with criterion(5, "fitting-factorization"):
        checked = 0
        for name in catalog.ENDO_SUITE:
            F = catalog.built(name).fusion
            if F.base.order > 64:
                continue
            for ne in catalog_normal_endos(name):
                split = fitting_factorize(F, ne)
                assert verify.stable_image_kernel_plain(F.base, ne.images) == (
                    split.stable.base.member_set, split.nil.base.member_set
                ), f"{name}: stable/nil split is not that of f^|S|"
                assert verify.fitting_candidates(F.base, ne.images, F) == [
                    (split.stable.base.members, split.nil.base.members)
                ], f"{name}: stable/nil splitting not unique"
                checked += 1
        assert checked >= 50


def test_criterion_06_krs_end_to_end():
    for name in catalog.MULTI_FACTOR:
        with criterion(6, f"krs-end-to-end[{name}]", budget=120):
            F = catalog.built(name).fusion
            facts = factorize_all(F)
            assert len(facts) == catalog.FACTORIZATION_COUNTS[name]
            enumerated = {a.images for a in normal_automorphisms(F)}
            step = max(1, len(facts) // 3)
            pairs = [(0, j) for j in range(step, len(facts), step)][:3]
            pairs += list(itertools.combinations(range(min(3, len(facts))), 2))
            for i, j in sorted(set(pairs)):
                cert = krs_certificate(F, facts[i], facts[j])
                assert cert.constructive
                assert len(facts[i].parts) == len(facts[j].parts) == len(cert.sigma)
                assert cert.alpha.images in enumerated
                for t, part in enumerate(facts[i].parts):
                    target = facts[j].parts[cert.sigma[t]]
                    mapped = {cert.alpha.images[x] for x in part.base.members}
                    assert mapped == target.base.member_set
            cert = krs_certificate(F, factorize(F), facts[-1])
            assert cert.alpha.images in enumerated


def test_criterion_07_uniqueness_corollary():
    with criterion(7, "uniqueness-corollary"):
        for name in catalog.RIGID:
            F = catalog.built(name).fusion
            assert center_of(F).order == 1 or focal_of(F).order == F.base.order
            facts = factorize_all(F)
            assert len(facts) == 1, f"{name}: {len(facts)}"
            auts = normal_automorphisms(F)
            assert len(auts) == 1
            assert auts[0].images == tuple(range(F.base.order))


def test_criterion_08_automorphism_structure():
    with criterion(8, "automorphism-structure"):
        big, F1, _ = product_oracle_pair("sigma3", "sigma3")
        fact = factorize(big)
        st = aut_structure(big, fact)
        assert st.aut0_order == 4
        assert len(st.gamma) == 2
        assert st.aut_order == 8
        # brute-force cross-checks behind the frozen values
        assert len(fusion_automorphisms(big)) == 8
        assert len(fusion_automorphisms(F1)) == 2


def test_criterion_09_goldschmidt_transfer():
    with criterion(9, "goldschmidt-transfer"):
        nontrivial = 0
        for name in catalog.GOLDSCHMIDT:
            b = catalog.built(name)
            assert b.group.order <= 200
            fact = factorize(b.fusion)
            assert len(fact.parts) >= 2
            # all five conclusion clauses are verified inside the call
            closures = goldschmidt_factor(b.group, fact)
            assert len(closures) == len(fact.parts)
            nontrivial += 1
        assert nontrivial >= 2


def test_criterion_10_report_determinism(tmp_path):
    with criterion(10, "report-determinism"):
        commands = [
            ["analyze", "--catalog", "inner-d8"],
            ["catalog", "show", "sigma3-cubed-paired"],
            ["factorize", "--catalog", "inner-c2c2", "--exhaustive"],
            ["fusion", "of-group", "--catalog", "sigma3"],
        ]
        for argv in commands:
            payloads = {
                serialize.canonical_dumps(cli.run(list(argv))[1])
                for _ in range(3)
            }
            assert len(payloads) == 1, argv
        # one round through the real executable
        outs = {
            subprocess.run(
                [sys.executable, "-m", "fusionsys", "analyze", "--catalog", "sigma3"],
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for _ in range(3)
        }
        assert len(outs) == 1

"""Certificates linking factorizations, equivariant refinements, and the
automorphism-group structure of factorized systems."""

import itertools

import pytest

from fusionsys import catalog, verify
from fusionsys.errors import HypothesisFailed
from fusionsys.groups import Subgroup, direct_product, sylow
from fusionsys.fusion import fusion_of_group
from fusionsys.morphisms import FusionMorphism, check_morphism
from fusionsys.factor import (
    AutStructure,
    KrsCertificate,
    NormalEndomorphism,
    OmegaContext,
    aut_structure,
    factorize,
    factorize_all,
    find_isomorphism,
    fusion_automorphisms,
    goldschmidt_factor,
    krs_certificate,
    normal_automorphisms,
)


def fusion(name):
    return catalog.built(name).fusion


# -- certificates ------------------------------------------------------------


def test_same_factorization_gives_identity():
    F = fusion("inner-c2c2")
    fact = factorize(F)
    cert = krs_certificate(F, fact, fact)
    assert cert.alpha.images == tuple(range(4))
    assert cert.sigma == (0, 1)
    assert cert.constructive


def test_v4_line_pairs_nonidentity_alpha():
    F = fusion("inner-c2c2")
    facts = factorize_all(F)
    assert len(facts) == 3
    enumerated = {a.images for a in normal_automorphisms(F)}
    assert len(enumerated) == 6
    seen_nonidentity = False
    for f1, f2 in itertools.combinations(facts, 2):
        cert = krs_certificate(F, f1, f2)
        assert cert.constructive
        assert cert.alpha.images in enumerated
        if cert.alpha.images != tuple(range(4)):
            seen_nonidentity = True
        # the certificate transports each part base exactly
        for i, part in enumerate(f1.parts):
            target = f2.parts[cert.sigma[i]].base.member_set
            assert {cert.alpha.images[x] for x in part.base.members} == target
    assert seen_nonidentity


@pytest.mark.parametrize("name", ["inner-c2c4", "inner-c3c3", "inner-c2c2"])
def test_constructive_matches_plain_twin(name):
    F = fusion(name)
    facts = factorize_all(F)
    for f1, f2 in itertools.combinations(facts, 2):
        cert = krs_certificate(F, f1, f2)
        alpha, sigma = verify.krs_certificate_plain(F, f1, f2)
        # both certificates transport the parts per their own sigma
        for images, perm in ((cert.alpha.images, cert.sigma), (alpha, sigma)):
            assert verify.transports_plain(images, f1, f2, perm)
            for i, part in enumerate(f1.parts):
                target = f2.parts[perm[i]].base.member_set
                assert {images[x] for x in part.base.members} == target


def test_plain_twin_respects_omega():
    F = fusion("inner-c2c4")
    inv = tuple(F.base.inv(x) for x in range(8))
    omega = OmegaContext.from_morphisms(F, [check_morphism(F, F, inv)])
    facts = factorize_all(F, omega)
    alpha, _ = verify.krs_certificate_plain(F, facts[0], facts[1], omega)
    assert omega.commutes_with(alpha)


def _krs_check_with(monkeypatch, edit, check=verify.check_krs_certificate_twin):
    """A krs check (``krs/certificate-twin`` by default) run on
    certificates passed through ``edit``."""

    def mutant(F, f1, f2, omega=None):
        return edit(F, omega, krs_certificate(F, f1, f2, omega))

    monkeypatch.setattr(verify, "krs_certificate", mutant)
    return verify._run(check.__name__, check)


def test_certificate_checks_reject_swapped_sigma(monkeypatch):
    # every pair of both checks has at least two parts; swapping the
    # images of the first two sends part 0 to a part alpha does not carry
    # it to
    def edit(F, omega, cert):
        assert len(cert.sigma) >= 2
        sigma = (cert.sigma[1], cert.sigma[0]) + cert.sigma[2:]
        return KrsCertificate(
            cert.alpha, sigma, cert.construction_log, cert.constructive, cert.note
        )

    for check in (verify.check_krs_certificate_twin, verify.check_krs_end_to_end):
        result = _krs_check_with(monkeypatch, edit, check)
        assert not result.passed, check.__name__
        assert "no transport" in result.detail


def test_certificate_twin_check_rejects_identity_complement(monkeypatch):
    # the forced complement x -> alpha(x)^-1 x is never the identity
    def edit(F, omega, cert):
        alpha = cert.alpha.morphism
        identity = FusionMorphism(F, F, range(F.base.order))
        return KrsCertificate(
            NormalEndomorphism(alpha, identity, True, True),
            cert.sigma,
            cert.construction_log,
            cert.constructive,
            cert.note,
        )

    result = _krs_check_with(monkeypatch, edit)
    assert not result.passed
    assert "complement is not the forced one" in result.detail


def test_certificate_twin_check_rejects_alpha_not_normal(monkeypatch):
    # swap alpha for a fusion automorphism outside the normal
    # (equivariant) ones wherever one exists: the rotation context has some
    def edit(F, omega, cert):
        normal = {m.images for m in normal_automorphisms(F, omega)}
        for m in fusion_automorphisms(F):
            if m.images not in normal:
                return KrsCertificate(
                    NormalEndomorphism(m, m, True, True),
                    cert.sigma,
                    cert.construction_log,
                    cert.constructive,
                    cert.note,
                )
        return cert

    result = _krs_check_with(monkeypatch, edit)
    assert not result.passed
    assert "alpha is not a normal automorphism" in result.detail


def test_aut_structure_check_rejects_wrong_stabilizer_order(monkeypatch):
    def mutant(F, fact):
        st = aut_structure(F, fact)
        return AutStructure(
            st.aut_order, st.aut0_order + 1, st.gamma, st.section, st.part_aut_orders
        )

    monkeypatch.setattr(verify, "aut_structure", mutant)
    result = verify._run("aut-structure", verify.check_aut_structure)
    assert not result.passed
    assert "count does not factor" in result.detail


def test_certificate_log_members_are_normal_automorphisms():
    F = fusion("inner-c3c3")
    facts = factorize_all(F)
    cert = krs_certificate(F, facts[0], facts[-1])
    enumerated = {a.images for a in normal_automorphisms(F)}
    for h in cert.construction_log:
        assert h.images in enumerated


def test_rejects_foreign_factorization():
    from fusionsys.errors import NotSubsystem

    F = fusion("inner-c2c2")
    other = fusion("inner-c2c4")
    fact_other = factorize(other)
    fact = factorize(F)
    with pytest.raises(NotSubsystem):
        krs_certificate(F, fact, fact_other)


def test_rigid_pairs_have_identity_alpha():
    for name in ["sigma3-cubed-full", "sigma3-squared", "dihedral18-sigma3"]:
        F = fusion(name)
        facts = factorize_all(F)
        assert [f.key() for f in facts] == [factorize(F).key()]
        cert = krs_certificate(F, factorize(F), facts[0])
        assert cert.alpha.images == tuple(range(F.base.order))


# -- equivariant version -------------------------------------------------------


def test_omega_restricts_factorizations():
    F = fusion("inner-c2c2c2")
    G = F.base
    sigma = (2, 3, 4, 5, 0, 1)
    sigma_inv = (4, 5, 0, 1, 2, 3)
    index = {G.perms[x]: x for x in range(8)}
    rot = tuple(
        index[tuple(sigma[G.perms[x][sigma_inv[pt]]] for pt in range(6))]
        for x in range(8)
    )
    omega = OmegaContext.from_morphisms(F, [check_morphism(F, F, rot)])
    assert len(omega.closure) == 3
    plain = factorize_all(F)
    invariant = factorize_all(F, omega)
    assert len(plain) == 28
    assert len(invariant) == 1
    assert sorted(len(b) for b in invariant[0].bases) == [2, 4]
    cert = krs_certificate(F, invariant[0], invariant[0], omega)
    assert cert.alpha.images == tuple(range(8))


def test_omega_inversion_certificates():
    F = fusion("inner-c2c4")
    inv = tuple(F.base.inv(x) for x in range(8))
    omega = OmegaContext.from_morphisms(F, [check_morphism(F, F, inv)])
    facts = factorize_all(F, omega)
    assert len(facts) == 4  # inversion preserves every subgroup
    enumerated = {a.images for a in normal_automorphisms(F, omega)}
    for f1, f2 in itertools.combinations(facts, 2):
        cert = krs_certificate(F, f1, f2, omega)
        assert omega.commutes_with(cert.alpha.images)
        assert cert.alpha.images in enumerated


# -- automorphism structure -------------------------------------------------------


def test_aut_structure_twin_parts(sigma3_squared_aligned):
    big, F1 = sigma3_squared_aligned
    fact = factorize(big)
    st = aut_structure(big, fact)
    assert st.aut_order == 8
    assert st.aut0_order == 4
    assert st.gamma == ((0, 1), (1, 0))
    assert st.part_aut_orders == (2, 2)
    # the section realizes the swap as an actual automorphism
    swap = st.section[(1, 0)]
    assert {swap[x] for x in fact.parts[0].base.members} == fact.parts[
        1
    ].base.member_set


def test_aut_structure_brute_force_oracle(sigma3_squared_aligned):
    # frozen values cross-checked against the raw automorphism count
    big, F1 = sigma3_squared_aligned
    assert len(fusion_automorphisms(big)) == 8
    assert len(fusion_automorphisms(F1)) == 2


def test_aut_structure_non_isomorphic_parts():
    s3 = catalog.built("sigma3").group
    d18 = catalog.built("dihedral18").group
    dp = direct_product(s3, d18)
    S1, S2 = sylow(s3, 3), sylow(d18, 3)
    members = [a * 18 + b for a in S1.members for b in S2.members]
    big = fusion_of_group(dp.product, 3, Subgroup(dp.product, members, _checked=True))
    fact = factorize(big)
    assert len(fact.parts) == 2
    assert find_isomorphism(fact.parts[0].system, fact.parts[1].system) is None
    st = aut_structure(big, fact)
    assert st.gamma == ((0, 1),)
    assert st.aut_order == st.aut0_order


def test_aut_structure_single_part():
    F = fusion("sym4")
    st = aut_structure(F, factorize(F))
    assert st.gamma == ((0,),)
    assert st.aut_order == st.aut0_order


def test_aut_structure_hypothesis_guard():
    F = fusion("inner-c2c2")
    with pytest.raises(HypothesisFailed):
        aut_structure(F, factorize(F))


# -- transfer to a realizing group ---------------------------------------------


def test_goldschmidt_two_group():
    b = catalog.built("inner-c2c2")
    closures = goldschmidt_factor(b.group, factorize(b.fusion))
    assert sorted(h.order for h in closures) == [2, 2]
    # for a 2-group realizing its own fusion the closures are the parts
    fact = factorize(b.fusion)
    for part, H in zip(fact.parts, closures):
        assert H.members == part.base.members


def test_goldschmidt_recovers_componentwise():
    b = catalog.built("sym4-c2")
    fact = factorize(b.fusion)
    closures = goldschmidt_factor(b.group, fact)
    assert sorted(h.order for h in closures) == [2, 24]
    big_part = max(closures, key=lambda h: h.order)
    small_part = min(closures, key=lambda h: h.order)
    # the order-24 closure is the embedded symmetric-group factor: it
    # fixes the two extra points, and the order-2 closure moves only them
    assert all(
        b.group.perms[x][4] == 4 and b.group.perms[x][5] == 5
        for x in big_part.members
    )
    assert all(
        b.group.perms[x][:4] == (0, 1, 2, 3) for x in small_part.members
    )


def test_goldschmidt_indecomposable_single_closure():
    b = catalog.built("sym4")
    F = b.fusion
    fact = factorize(F)
    assert len(fact.parts) == 1
    closures = goldschmidt_factor(b.group, fact)
    assert len(closures) == 1
    assert closures[0].order == 24


def test_goldschmidt_rejects_a_factorization_of_another_system():
    # the inner system of the Sylow subgroup of Sym4 x C2 sits on the
    # same table as F_S(G) but has fewer maps
    from fusionsys.errors import NotSubsystem
    from fusionsys.fusion import FusionSystem, inner_fusion

    b = catalog.built("sym4-c2")
    S = b.fusion.base
    foreign = FusionSystem(S, 2, inner_fusion(S).maps)
    with pytest.raises(NotSubsystem, match="different system"):
        goldschmidt_factor(b.group, factorize(foreign))
    other = catalog.built("inner-d8-c2")
    with pytest.raises(NotSubsystem, match="different system"):
        goldschmidt_factor(b.group, factorize(other.fusion))


def test_goldschmidt_hypothesis_guard():
    b = catalog.built("sigma3")
    with pytest.raises(HypothesisFailed, match="odd-order core"):
        goldschmidt_factor(b.group, factorize(b.fusion))
    alt = catalog.built("alt4")
    with pytest.raises(HypothesisFailed):
        # the alternating group is not generated by its 2-elements
        goldschmidt_factor(alt.group, factorize(alt.fusion))

# -- one proof per fact --------------------------------------------------------


def _prove_once_cases():
    cases = [(name, fusion(name), None) for name in catalog.names()]
    F, omega = verify.relabelling(fusion("inner-c3c3c3"), (3, 4, 5, 0, 1, 2, 6, 7, 8))
    return cases + [("inner-c3c3c3 under the swap", F, omega)]


@pytest.mark.parametrize(
    "name, F, omega", _prove_once_cases(), ids=[case[0] for case in _prove_once_cases()]
)
def test_factorize_and_krs_prove_nothing_again(monkeypatch, name, F, omega):
    # the full scans are the witness and twin paths: a call that succeeds
    # on a fresh copy of the system runs none of them
    from fusionsys import factor, morphisms
    from fusionsys.fusion import FusionSystem

    scans = []
    for scan in ("_commute_scan", "_push_every_map", "_subsystem_scan"):
        for module in (morphisms, factor):
            if hasattr(module, scan):
                monkeypatch.setattr(module, scan, lambda *args, _scan=scan: scans.append(_scan))
    if omega is None:
        F = FusionSystem(F.base, F.p, F.maps)
    factorize(F, omega)
    facts = factorize_all(F, omega)
    krs_certificate(F, facts[0], facts[-1], omega)
    assert scans == []

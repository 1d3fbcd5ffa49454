"""Property tests for the fusion closure engine: arbitrary generators
must always yield a well-formed fusion system, and saturated results must
regenerate from their centric-radical automorphisms."""

import pytest
from hypothesis import given, settings, strategies as st

from fusionsys import catalog
from fusionsys.groups import (
    FiniteGroup,
    cycles_to_perm,
    injective_homs,
    subgroups,
)
from fusionsys.fusion import (
    center_of,
    focal_of,
    generated_fusion,
    inner_fusion,
    is_saturated,
)
from fusionsys.factor import OmegaContext, factorize_all
from fusionsys.morphisms import check_morphism
from fusionsys.verify import SMALL_BASES, regenerate_from_alperin


def _base_pool():
    pool = {}
    for name, (gens, points) in SMALL_BASES.items():
        G = FiniteGroup.from_permutations(
            [cycles_to_perm(c, points) for c in gens], points=points
        )
        candidates = []
        for P in subgroups(G):
            for Q in subgroups(G):
                if P.order <= Q.order and P.order > 1:
                    candidates.extend(injective_homs(P, Q))
        pool[name] = (G, candidates)
    return pool


POOL = _base_pool()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(POOL)),
    picks=st.lists(st.integers(min_value=0), min_size=0, max_size=2),
)
def test_generated_fusion_is_well_formed(name, picks):
    G, candidates = POOL[name]
    gens = [candidates[i % len(candidates)] for i in picks]
    F = generated_fusion(G, gens)
    F.validate_closure()
    # generators and the inner system are inside
    inner = inner_fusion(G)
    for i in range(len(F.lattice.subs)):
        assert set(inner.maps[i]) <= set(F.maps[i])
    for h in gens:
        i = F.index_of(h.domain.members)
        assert F.has_map(i, h.images)
    # the center stays inside the fixed part of the group center
    z = center_of(F)
    assert z.member_set <= set(G.center_members())
    for x in z.members:
        assert F.element_class_of(x) == (x,)
    # the focal subgroup contains every fused difference by construction
    foc = focal_of(F)
    for cls in F.element_classes():
        for x in cls:
            for y in cls:
                assert G.mul(x, G.inv(y)) in foc.member_set
    # saturated closures regenerate from centric-radical automorphisms
    if is_saturated(F):
        regenerate_from_alperin(F)


def test_omega_swap_on_rank_two():
    # swapping the two coordinates leaves exactly the diagonal pair of
    # lines invariant
    F = catalog.built("inner-c3c3").fusion
    G = F.base
    tau = (3, 4, 5, 0, 1, 2)
    index = {G.perms[x]: x for x in range(9)}
    images = tuple(
        index[tuple(tau[G.perms[x][tau[pt]]] for pt in range(6))]
        for x in range(9)
    )
    omega = OmegaContext.from_morphisms(F, [check_morphism(F, F, images)])
    plain = factorize_all(F)
    fixed = factorize_all(F, omega)
    assert len(plain) == 6
    assert len(fixed) == 1
    for members in fixed[0].bases:
        assert {images[x] for x in members} == set(members)

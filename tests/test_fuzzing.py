"""Fuzz harness plumbing: determinism, defect injection."""

import random

from process_duality import process as process_mod
from process_duality.fuzzing import (
    check_instance,
    injected_defect,
    random_affine_instance,
    random_order_cone,
    run_fuzz,
)
from process_duality.problemfile import emit_problem


def test_instance_generation_deterministic():
    a = random_affine_instance(random.Random(99), (2, 2, 1))
    b = random_affine_instance(random.Random(99), (2, 2, 1))
    assert emit_problem(a) == emit_problem(b)


def test_order_cone_generator_cap():
    for seed in range(20):
        c = random_order_cone(random.Random(seed), 3, max_gens=6)
        assert len(c.generators) + 2 * len(c.lineality) <= 6


def test_order_cone_generator_matches_lp_filter(lp_filter_order_cone):
    """Deciding the interior from the canonical rows keeps every draw: the
    same cone, interior witness and generator state as the strict-LP filter."""
    for dim in range(1, 5):
        for seed in range(300):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            got = random_order_cone(rng, dim)
            want = lp_filter_order_cone(oracle_rng, dim)
            assert got.cone == want.cone, (dim, seed)
            assert got.interior_witness == want.interior_witness, (dim, seed)
            assert rng.getstate() == oracle_rng.getstate(), (dim, seed)


def test_affine_instances_match_the_old_generator(old_affine_instance):
    """g(0) = -(Z_+'s interior witness) is the problem the ray-sum-or-LP
    route made, byte for byte, with the same generator state after it."""
    for dims in ((1, 1, 1), (2, 2, 2), (3, 3, 3), (2, 1, 3), (1, 3, 2)):
        for seed in range(300):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            got = emit_problem(random_affine_instance(rng, dims))
            assert got == emit_problem(old_affine_instance(oracle_rng, dims)), (dims, seed)
            assert rng.getstate() == oracle_rng.getstate(), (dims, seed)


def test_defect_injection_restores_kernel():
    original = process_mod.halfspace_process
    with injected_defect("sign-flip-halfspace"):
        assert process_mod.halfspace_process is not original
    assert process_mod.halfspace_process is original


def test_defect_is_caught_and_shrunk():
    report = run_fuzz(seed=1, count=6, dims=(2, 2, 1),
                      defect="sign-flip-halfspace")
    assert not report.ok
    ce = report.counterexample
    assert ce["problem"]
    # shrunk instance still parses and still fails
    from process_duality.problemfile import parse_problem

    shrunk = parse_problem(ce["problem"])
    with injected_defect("sign-flip-halfspace"):
        assert check_instance(shrunk)

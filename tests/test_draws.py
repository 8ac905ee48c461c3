"""The samplers' draws, pinned: every seeded suite case replays from the
draws of `random_polynomial`, `random_poly_map`, `random_morphism` and
`random_weil_algebra`, so any change to what they draw, or to how many
draws they take, moves the digest below."""

import hashlib
import random

from weilkit.expressions import format_map
from weilkit.samplers import (
    random_morphism,
    random_poly_map,
    random_polynomial,
    random_weil_algebra,
)

# sha256 over seeds 0-49 of the texts drawn by `_draw_texts`
DRAW_DIGEST = "22717915248385a510aab459d79db3f196ad2a11d64c0b696a83902edfcbb314"


def _draw_texts(seed: int):
    rng = random.Random(f"draws:{seed}")
    for nvars in range(4):
        for min_degree in (0, 1):
            p = random_polynomial(
                rng, nvars, max_degree=1 + seed % 3, max_terms=2 + seed % 4,
                min_degree=min_degree,
            )
            yield f"poly {nvars} {p!r}"
    arity, coarity = 1 + seed % 3, 1 + (seed // 3) % 3
    yield "map " + format_map(random_poly_map(rng, arity, coarity, max_degree=2 + seed % 2))
    source = random_weil_algebra(rng)
    target = random_weil_algebra(rng)
    yield f"algebras {source!r} {target!r}"
    yield "psibar " + repr(random_morphism(rng, source, target))
    yield f"next {rng.random()!r}"


def test_sampler_draws_do_not_move():
    digest = hashlib.sha256()
    for seed in range(50):
        for text in _draw_texts(seed):
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == DRAW_DIGEST

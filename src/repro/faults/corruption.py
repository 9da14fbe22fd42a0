"""Transient state corruption: seeded bit-flips in cached matrices.

The self-stabilization literature's fault model is arbitrary transient
state corruption: some memory words change under the protocol's feet,
and the measure of a protocol is how fast legitimate behavior returns
once faults stop.  Here the corruptible state is the evaluator's two
derived caches — the overlay-distance rows and the per-peer service
(``W``) matrices — while the *ground truth* (the metric, the committed
strategies) stays intact, exactly like a transient fault that hits a
cache but not the replicated inputs.

Flips are drawn from the :func:`~repro.faults.plan._draw` SHA-256
scheme, so a scenario's corruption is a pure function of its seed.
Each flip XORs one bit of one float64 cell — a mantissa bit or one of
the four lowest exponent bits, so values swing by up to a factor of
``2**16`` but stay **finite** (a flip that would mint ``inf``/``nan``
falls back to its mantissa-bit shadow, and non-finite cells are never
touched).  ``inf``/``nan`` model a *detectable* fault; the interesting
regime is silent corruption that plausible-looking numbers hide.

Recovery is :func:`repair` — ``evaluator.invalidate()`` — after which
every query recomputes from ground truth; re-convergence is then
measured in best-response epochs by
:mod:`repro.faults.scenarios`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.plan import _draw

__all__ = [
    "flip_float_bit",
    "corrupt_overlay_rows",
    "corrupt_service_matrices",
    "repair",
]

#: float64 mantissa width.
_MANTISSA_BITS = 52
#: Low exponent bits that may also flip — scale swings up to 2**16
#: while an overflow into the inf/nan exponent stays essentially
#: impossible for the matrix magnitudes this package corrupts (and is
#: guarded against regardless).
_EXPONENT_BITS = 4
_FLIP_BITS = _MANTISSA_BITS + _EXPONENT_BITS


def flip_float_bit(values: np.ndarray, flat_index: int, bit: int) -> bool:
    """XOR one bit of ``values.flat[flat_index]`` in place, kept finite.

    ``bit`` may address the mantissa or the ``_EXPONENT_BITS`` lowest
    exponent bits.  Non-finite cells are left alone (a mantissa flip on
    ``inf`` would mint ``nan`` — a *detectable* fault, out of scope),
    and an exponent flip that would overflow falls back to the same
    bit's mantissa shadow.  Returns whether a flip was applied.
    """
    if not 0 <= bit < _FLIP_BITS:
        raise ValueError(f"bit must lie in [0, {_FLIP_BITS}), got {bit}")
    view = values.reshape(-1).view(np.uint64)
    floats = values.reshape(-1)
    if not np.isfinite(floats[flat_index]):
        return False
    view[flat_index] ^= np.uint64(1) << np.uint64(bit)
    if not np.isfinite(floats[flat_index]):
        view[flat_index] ^= np.uint64(1) << np.uint64(bit)
        view[flat_index] ^= np.uint64(1) << np.uint64(bit % _MANTISSA_BITS)
    return True


def _draw_flips(
    seed: int, site: str, count: int, cells: int
) -> List[Tuple[int, int]]:
    """``count`` deterministic ``(flat_index, bit)`` pairs over ``cells``.

    Half the flips (in expectation) land on exponent bits: a uniform
    draw over all 56 flippable bits almost always hits a low mantissa
    bit, whose perturbation vanishes next to the link price ``alpha`` —
    corruption that can never flip a decision measures nothing.
    """
    flips = []
    for k in range(count):
        cell = int(_draw(seed, f"{site}/cell", k) * cells)
        sub = _draw(seed, f"{site}/bit", k)
        if _draw(seed, f"{site}/kind", k) < 0.5:
            bit = _MANTISSA_BITS + int(sub * _EXPONENT_BITS)
        else:
            bit = int(sub * _MANTISSA_BITS)
        flips.append((min(cell, cells - 1), min(bit, _FLIP_BITS - 1)))
    return flips


def corrupt_overlay_rows(
    evaluator, *, seed: int = 0, flips: int = 8
) -> List[Tuple[int, int, int]]:
    """Flip bits in the evaluator's cached overlay-distance matrix.

    Materializes the matrix first (corrupting an empty cache would be a
    no-op), then applies ``flips`` seeded mantissa flips in place.
    Returns the ``(row, col, bit)`` triples actually flipped.  Only the
    monolithic :class:`~repro.core.evaluator.GameEvaluator` cache is
    targeted — sharded evaluators keep rows elsewhere.
    """
    dist = evaluator.overlay_distances()
    n = dist.shape[1]
    applied = []
    for cell, bit in _draw_flips(seed, "overlay", flips, dist.size):
        if flip_float_bit(dist, cell, bit):
            applied.append((cell // n, cell % n, bit))
    # Stretch and social-cost caches were derived from the clean rows;
    # drop them so corrupted values actually flow into later queries.
    evaluator._stretch = None
    return applied


def corrupt_service_matrices(
    evaluator,
    *,
    seed: int = 0,
    flips: int = 8,
    peers: Optional[Sequence[int]] = None,
) -> List[Tuple[int, int, int]]:
    """Flip bits in cached service (``W``) matrices via the store API.

    Targets the matrices already resident in the evaluator's service
    store (``peers`` narrows the candidates); each flip rewrites one
    corrupted row through ``write_rows``, so both store kinds (memory,
    shared) take the corruption identically.  Returns
    ``(peer, row, bit)`` per flip; empty when nothing is cached.
    """
    store = evaluator._store
    keys = sorted(store.keys())
    if peers is not None:
        wanted = set(int(p) for p in peers)
        keys = [k for k in keys if k in wanted]
    if not keys:
        return []
    applied = []
    for k, (cell, bit) in enumerate(
        _draw_flips(seed, "service", flips, len(keys) * (1 << 20))
    ):
        peer = keys[cell % len(keys)]
        weights = store.get(peer)
        rows, cols = weights.shape
        row = int(_draw(seed, "service/row", k) * rows)
        row = min(row, rows - 1)
        corrupted = np.array(weights[row], dtype=np.float64, copy=True)
        col = int(_draw(seed, "service/col", k) * cols)
        if not flip_float_bit(corrupted, min(col, cols - 1), bit):
            continue
        store.write_rows(peer, [row], corrupted[np.newaxis, :])
        # The evaluator memoizes "matrix unchanged since last solve";
        # a silent corruption must not be masked by that memo.
        entry = evaluator._service.get(peer)
        if entry is not None:
            entry.memo = None
            entry.changed_since_memo = True
        applied.append((peer, row, bit))
    return applied


def repair(evaluator) -> None:
    """Restore legitimacy: drop every derived cache.

    After :func:`repair` the next query recomputes from the metric and
    the committed strategies — the ground truth corruption never
    touched — so the evaluator is byte-identical to a freshly built
    one.  This is the "fault detected, caches rebuilt" recovery whose
    cost the scenarios measure.
    """
    evaluator.invalidate()

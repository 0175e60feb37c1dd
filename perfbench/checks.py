"""Output checks, each made apart from the program under test.

Every check returns how many operations failed; callers add that to a
:class:`~perfbench.common.Tally`.  ``selftest.py`` plants one fault of each
kind and demands that it is counted.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np


def lanes_differing(got: np.ndarray, want: np.ndarray) -> int:
    """Lanes (leading axis) whose bytes differ between ``got`` and ``want``."""
    if got.shape != want.shape or got.dtype != want.dtype:
        return int(got.shape[0]) if got.ndim else 1
    lanes = got.shape[0]
    a = np.ascontiguousarray(got).view(np.uint8).reshape(lanes, -1)
    b = np.ascontiguousarray(want).view(np.uint8).reshape(lanes, -1)
    return int(np.count_nonzero((a != b).any(axis=1)))


class BatchVerifier:
    """Verify a pooled input batch once, then demand bit identity.

    ``reference_failures(k, outputs)`` counts the lanes of pool entry ``k``
    that disagree with the independent reference.  A batch whose first
    check passes has its ``extract(outputs)`` kept; every later run of that
    batch must reproduce it byte for byte.
    """

    def __init__(
        self,
        reference_failures: Callable[[int, np.ndarray], int],
        extract: Callable[[np.ndarray], np.ndarray] = lambda out: out,
    ) -> None:
        self._reference_failures = reference_failures
        self._extract = extract
        self._verified: Dict[int, np.ndarray] = {}

    def check(self, k: int, outputs: np.ndarray, tally) -> int:
        got = self._extract(outputs)
        lanes = int(got.shape[0])
        stored = self._verified.get(k)
        if stored is None:
            bad = int(self._reference_failures(k, outputs))
            if bad == 0:
                self._verified[k] = np.array(got, copy=True)
            reason = f"{bad} lane(s) of pool batch {k} disagree with the reference"
        else:
            bad = lanes_differing(got, stored)
            reason = f"{bad} lane(s) of pool batch {k} changed bits since verified"
        tally.ok(lanes - bad)
        if bad:
            tally.fail(reason, bad, wrong=True)
        return bad


def opt_answers(outputs: np.ndarray, n: int) -> np.ndarray:
    from repro.algorithms.polygon import answer_address

    return np.asarray(outputs)[..., answer_address(n)]


def opt_lane_failures(outputs: np.ndarray, reference: np.ndarray, n: int) -> int:
    """Lanes whose OPT answer is not bit for bit the hand-vectorised
    ``opt_bulk`` value (both evaluate the same sums and minima in the same
    order, so they agree exactly)."""
    return lanes_differing(opt_answers(outputs, n), reference)


def registry_lane_failures(spec, inputs: np.ndarray, outputs: np.ndarray, n: int) -> int:
    """Lanes the registry checker (independent NumPy/zlib references) refuses."""
    try:
        spec.check_outputs(inputs, outputs, n)
        return 0
    except AssertionError:
        pass
    bad = 0
    for i in range(inputs.shape[0]):
        try:
            spec.check_outputs(inputs[i : i + 1], outputs[i : i + 1], n)
        except AssertionError:
            bad += 1
    return max(bad, 1)

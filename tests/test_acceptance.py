"""End-to-end acceptance checks, one test per shipped criterion.

Each test runs a criterion from spinent.checks against its targets and
asserts it passed, printing the same summary line and detail rows that
``spinent check`` reports.

The targets of criteria 5, 6 and 8 come from exact results: the N=12 pair
entropy just above delta = -1 against the Bethe route and the Dicke-state
limit, the SU(2) crossing czz = cxx of the 4x4 bond correlators at delta = 1,
and the entropy maximum with the SU(3) 1 + 8 pair spectrum at theta = 3pi/2.
tests/test_checks.py pins the facts behind 5 and 8 against the Bethe ansatz
and the dense Kronecker oracle.
Criterion 9 still fails: its frozen 0.01 bound on the size-to-size entropy
spread is exceeded at both ends of the window (0.0256 at delta = 1.5, 0.0115
at delta = 3) by values that dense diagonalization and scipy's eigensolver
reproduce, and no corrected bound has been derived yet. The detail row
carries the measured spread.

Each criterion runs serially, with jobs=1: pool workers forked here inherit
multi-threaded OpenBLAS, which made criterion 7 several times slower than a
serial run. tests/test_analysis.py covers the pool. The full set takes about
five seconds on one core with OPENBLAS_NUM_THREADS=1, almost half of it
criterion 7 (spin-1 chains up to L=12).
"""

import pytest

from spinent import checks


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(number):
    result = checks.run_criterion(number, jobs=1)
    print(result.summary_line())
    for line in result.details:
        print("   " + line)
    assert result.passed, "\n".join([result.summary_line(), *result.details])

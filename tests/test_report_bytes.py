"""The checkers' verdicts, the Lidskii history, the dyadic norms and the certificate keep
the exact bytes of the pinned reports.

``tests/golden`` holds the stdout of each command below: the ``nuclearity``
verdicts (README's t1, t2 and tt1 commands; a t2 set that fails four clauses; a
dim-2 torus tt1 whose shells carry multiplicities; an SU(2) tt1 just inside its
exponent clause) and the ``lidskii`` histories (a converged 8-radius heat run, a
two-radius run, JSON and CSV), as the package printed them when these bodies
were still built from record classes; and two ``besov-norm`` tables (p = 2 and
p = 3), an ``approx-demo`` error table and a ``trace`` with its quasi-norm
certificate, as the package printed them before the l^p norms went through one
reduction (``sums.power_norms``); and four ``heat-trace``/``bessel-trace`` series
(SU(2), its integer spins, the tail-corrected circle), as the package printed them
while each series still wrote out its own terms; and an SU(2) and a dim-2 torus tt1
that each violate their summable clause, a divergent dim-2 torus ``bessel-trace`` and
a dim-2 torus ``heat-trace``, as the package printed them while the series code still
read the group from its name; and a dim-2 ``spectrum`` of 289 complex eigenvalues.
Each report must render to those bytes, field order and every float's 17 digits
included.  The tails, verdicts and rules of
the first files were rewritten once, when the integral-test bound replaced the
shell-ratio rule, and the two SU(2)-monitor and dim-2 torus tt1 partial sums once,
when the tt1 terms became one power of (1 + lambda) (last digits, toward the exact
sums), and the p = 2 table's block 2 and the approx-demo error at N = 4 once, when
p = 2 block norms went to Parseval (last digit, to the correctly rounded values),
and the t1 and both t2 witnesses' labels, partial sums and tails once, when they
went from nested lattice boxes to the torus dual's shells (the t2 convolution
witness to the product of two such series); every other byte was kept.
"""

from pathlib import Path

import pytest

from torustrace.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = {
    "nuclearity-t1.json": "nuclearity --theorem t1 --n 1 --r 1 --alpha 0.5 --p1 2 --k 1 --delta 0 "
                          "--m -4 --w2 0",
    "nuclearity-t2.json": "nuclearity --theorem t2 --n 2 --r 0.5 --alpha 0.5 --p1 2 --k 1 --delta 0.5 "
                          "--m -1 --w2 0.5",
    "nuclearity-tt1.json": "nuclearity --theorem tt1 --case 3 --group su2 --cutoff 200 --r 1 --p 2 "
                           "--q 2 --symbol bessel --m -4",
    "nuclearity-t2-readme.json": "nuclearity --theorem t2 --alpha 0.5 --p1 2 --delta 0 --n 1 --r 1 --k 1 "
                                 "--m 0 --w2 -1",
    "nuclearity-tt1-torus-dim2.json": "nuclearity --theorem tt1 --case 1 --group torus --dim 2 --cutoff 60 "
                                      "--r 1 --p 1.5 --q 2 --symbol bessel --m -4",
    "nuclearity-tt1-monitor.json": "nuclearity --theorem tt1 --case 3 --group su2 --cutoff 200 --r 1 --p 2 "
                                   "--q 2 --m -3.1",
    "lidskii.json": "lidskii --symbol modulated --c 2 --m -4 --radii 4,8,16 --format json",
    "lidskii-heat.json": "lidskii --symbol heat --t 0.1 --radii 1,2,4,8,16,32,64,128",
    "lidskii-bessel.json": "lidskii --symbol bessel --m -4 --radii 4,8",
    "lidskii-modulated.csv": "lidskii --symbol modulated --c 2 --m -4 --radii 4,8,16 --format csv",
    "besov-norm-p2.json": "besov-norm --stock 8 --w 1 --p 2 --q 2 --radius 8",
    "besov-norm-p3.json": "besov-norm --stock 8 --w 1 --p 3 --q 2 --radius 8",
    "approx-demo.json": "approx-demo --stock 8 --w 0 --p 2 --q 2 --n-values 1,2,4,8,9",
    "trace-certificate.json": "trace --symbol modulated --c 2 --m -4 --dim 2 --radius 12 --certify-w 1",
    "heat-trace-su2.json": "heat-trace --group su2 --t 1.0 --cutoff 20",
    "heat-trace-su2-integer-spins.json": "heat-trace --group su2 --t 1 --cutoff 30 --integer-spins",
    "bessel-trace-tail-correct.json": "bessel-trace --group torus --dim 1 --alpha 2 --cutoff 100000 "
                                      "--tail-correct",
    "bessel-trace-su2.json": "bessel-trace --group su2 --alpha 4 --cutoff 200",
    "nuclearity-tt1-su2-violated.json": "nuclearity --theorem tt1 --case 3 --group su2 --cutoff 50 --r 1 --p 2 "
                                        "--q 2 --m -2",
    "nuclearity-tt1-torus-dim2-violated.json": "nuclearity --theorem tt1 --case 1 --group torus --dim 2 "
                                               "--cutoff 20 --r 1 --p 1.5 --q 2 --m -1",
    "bessel-trace-torus-dim2-divergent.json": "bessel-trace --group torus --dim 2 --alpha 1.5 --cutoff 60",
    "heat-trace-torus-dim2.json": "heat-trace --group torus --dim 2 --t 0.01 --cutoff 60",
    "spectrum-modulated-dim2.json": "spectrum --symbol modulated --m -4 --dim 2 --radius 8",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_keeps_its_pinned_bytes(capsys, monkeypatch, name):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)  # the header timestamp is then null
    assert main(COMMANDS[name].split()) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()

"""Golden CLI text: `study gen-config <kind>` for every kind and `study
list-kinds` print exactly these bytes.  The templates are what users start
from, so a refactor of how kinds are declared must not change them.
"""

import pytest

from sgsplines.cli import main as cli_main

TEMPLATES = {
    "univariate-convergence": """\
# univariate-convergence: L2 projection error vs the univariate bound
kind=univariate-convergence
d=1
p=1..3
n=3..7
target=sin-2pi
seed=0
timing=off  # 'on' records wall time per row
# out=report.csv
""",
    "sparse-convergence": """\
# sparse-convergence: sparse-grid L2 error vs the log-corrected bound
kind=sparse-convergence
d=2
p=1,2
n=3..8
target=sinpi-prod
seed=0
timing=off  # 'on' records wall time per row
# out=report.csv
""",
    "mapped-convergence": """\
# mapped-convergence: pullback L2 error rate on a geometry map
kind=mapped-convergence
d=2
p=2
n=3..7
target=sinpi-prod
geometry=distorted-square  # builtin name or file path
min_order=2.8
seed=0
timing=off  # 'on' records wall time per row
# out=report.csv
""",
    "equivalence": """\
# equivalence: combination vs hierarchical span equality
kind=equivalence
d=2
p=1,2
n=2..5
seed=0
timing=off  # 'on' records wall time per row
# out=report.csv
""",
    "identities": """\
# identities: exact combinatorial identities of the level sets
kind=identities
p=1..4
d_max=6
n_max=12
seed=0
timing=off  # 'on' records wall time per row
# out=report.csv
""",
    "inverse-inequality": """\
# inverse-inequality: Rayleigh-quotient pencils vs inverse-inequality bounds
kind=inverse-inequality
d=2
p=2,3
n=3..6
q=1,2
variant=univariate  # univariate | sparse | mapped
seed=0
timing=off  # 'on' records wall time per row
# out=report.csv
""",
    "dimensions": """\
# dimensions: sparse and full dimension counts
kind=dimensions
d=2
p=1
n=3..10
rank_max=5
seed=0
timing=off  # 'on' records wall time per row
# out=report.csv
""",
}

LIST_KINDS = """\
univariate-convergence   L2 projection error vs the univariate bound
sparse-convergence       sparse-grid L2 error vs the log-corrected bound
mapped-convergence       pullback L2 error rate on a geometry map
equivalence              combination vs hierarchical span equality
identities               exact combinatorial identities of the level sets
inverse-inequality       Rayleigh-quotient pencils vs inverse-inequality bounds
dimensions               sparse and full dimension counts
"""



def test_list_kinds_text(capsys):
    assert cli_main(["list-kinds"]) == 0
    assert capsys.readouterr().out == LIST_KINDS


@pytest.mark.parametrize("kind", TEMPLATES)
def test_gen_config_text(kind, capsys):
    assert cli_main(["gen-config", kind]) == 0
    assert capsys.readouterr().out == TEMPLATES[kind]

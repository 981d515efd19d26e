"""FIG3 -- the solution landscape overview (Figure 3).

Structural artifact: the taxonomy tree plus the transcription of
Table 1, checked for completeness against the mechanisms the library
actually implements.
"""

from repro.core.solution import SOLUTIONS
from repro.experiments import fig3_overview
from repro.scenario import MECHANISMS

from tests.paper.conftest import banner


def test_fig3_overview():
    result = fig3_overview()
    print(banner("Figure 3: overview of potential solutions"))
    print(result.render())

    # Every taxonomy leaf family is implemented and evaluable.
    for token in ("All-Lock", "Dec-Lock", "Inc-Lock", "SMARM",
                  "ERASMUS", "SeED", "TyTAN"):
        assert token in result.tree
    # Every Table 1 row with a mechanism key is declared in the
    # mechanism table, so the evaluation harness can run it.
    for solution in SOLUTIONS:
        if solution.mechanism_key:
            assert solution.mechanism_key in MECHANISMS

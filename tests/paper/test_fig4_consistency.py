"""FIG4 -- temporal consistency per locking mechanism (Figure 4).

Runs one measurement per policy with controlled writes at the A/B/C/D
instants of Figure 4 and asserts each mechanism's claimed guarantee:
All-Lock consistent over [t_s, t_e] (and -Ext until t_r), Dec-Lock at
t_s only, Inc-Lock at t_e (and -Ext until t_r), No-Lock nowhere.
"""

from repro.experiments import fig4_consistency

from tests.paper.conftest import banner


def test_fig4_consistency():
    result = fig4_consistency()
    print(banner("Figure 4: consistency of F's computation vs writes"))
    print(result.render())

    by_policy = {case.policy: case for case in result.cases}
    tolerance = 1e-3

    no_lock = by_policy["no-lock"]
    assert not no_lock.profile.any_consistent

    all_lock = by_policy["all-lock"]
    assert all_lock.consistent_near(all_lock.t_s, tolerance)
    assert all_lock.consistent_near(all_lock.t_e, tolerance)

    all_ext = by_policy["all-lock-ext"]
    assert all_ext.t_r is not None
    assert all_ext.consistent_near(all_ext.t_r, tolerance * 10)

    dec = by_policy["dec-lock"]
    assert dec.consistent_near(dec.t_s, tolerance)
    assert not dec.consistent_near(dec.t_e, tolerance)

    inc = by_policy["inc-lock"]
    assert inc.consistent_near(inc.t_e, tolerance)
    assert not inc.consistent_near(inc.t_s, tolerance)

    inc_ext = by_policy["inc-lock-ext"]
    assert inc_ext.t_r is not None
    assert inc_ext.consistent_near(inc_ext.t_r, tolerance * 10)

    # Figure 4's caption: a change at A (before t_s) or D (after the
    # release) "has no effect"; B/C matter per mechanism.
    for case in result.cases:
        assert case.committed_writes["A"]
    assert by_policy["dec-lock"].committed_writes["B"]
    assert not by_policy["dec-lock"].committed_writes["C"]
    assert not by_policy["inc-lock"].committed_writes["B"]
    assert by_policy["inc-lock"].committed_writes["C"]

"""The golden campaign: desk r0-2 and wide r0 against a committed fixture.

SMSE entries are compared to 1e-12 relative and final rates to 1e-9
relative, since the sum rate amplifies last-bit differences of the channel
by about 1e5. Iteration counts, `converged` and the digest of the assembled
impedance matrix are compared exactly, but only on the numpy and scipy
builds that wrote the fixture: other builds may round differently.
`golden_campaign.py` regenerates the fixture.
"""

import json

import pytest

from golden_campaign import CASES, FIXTURE, run_case, versions, z_digest

GOLDEN = json.loads(FIXTURE.read_text())
SAME_BUILD = GOLDEN["versions"] == versions()


@pytest.mark.parametrize("name", sorted(CASES))
def test_campaign_matches_the_golden_fixture(name):
    expected = GOLDEN["cases"][name]
    arms = run_case(name)
    assert sorted(arms) == sorted(expected["arms"])
    for algo, want in expected["arms"].items():
        got = arms[algo]
        assert got["final_sum_rate"] == pytest.approx(want["final_sum_rate"], rel=1e-9, abs=0.0)
        shared = sorted(set(got["smse"]) & set(want["smse"]), key=int)
        assert "0" in shared
        for i in shared:
            assert got["smse"][i] == pytest.approx(want["smse"][i], rel=1e-12, abs=0.0), (algo, i)
        if SAME_BUILD:
            assert (got["iterations"], got["converged"]) == (
                want["iterations"],
                want["converged"],
            ), algo
            assert got["smse"].keys() == want["smse"].keys(), algo
    if SAME_BUILD:
        config, _, realization = CASES[name]
        assert z_digest(config, realization) == expected["z_sha256"]

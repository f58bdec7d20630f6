"""The package's public surface: ``terrafilter.__all__`` names only what
exists, and names that were removed stay removed."""

import terrafilter
from terrafilter import exceptions, geometry, metrics
from terrafilter.base import StreamingFilter


def test_every_public_name_resolves():
    assert len(set(terrafilter.__all__)) == len(terrafilter.__all__)
    for name in terrafilter.__all__:
        assert hasattr(terrafilter, name), name


def test_removed_names_are_gone():
    # the lockstep has one entry point, run_lockstep_detailed, and the
    # headline improvement is computed where it is used; next_waypoint's z
    # line is the one vertical step
    for owner, name in [(metrics, "improvement"), (exceptions, "UndefinedRatioError"),
                        (StreamingFilter, "run_lockstep"),
                        (geometry, "vertical_recursion")]:
        assert not hasattr(owner, name), name
        assert not hasattr(terrafilter, name), name
        assert name not in terrafilter.__all__

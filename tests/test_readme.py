"""The config keys and init values that README.md lists are the ones the
solver accepts."""

import pathlib
import re

from bplab import solver

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _keys_sentence():
    """README's sentence 'recognized keys are ...', up to its full stop."""
    text = " ".join(README.read_text().split())
    return re.search(r"recognized keys are ([^.]*)\.", text).group(1)


def test_listed_keys_are_the_config_keys():
    assert re.findall(r"`([^`]+)`", _keys_sentence()) == list(solver.CONFIG_KEYS)


def test_listed_inits_are_the_known_inits():
    listed = re.search(r"`init` \(one of ([^)]*)\)", _keys_sentence()).group(1)
    assert sorted(listed.split(", ")) == sorted(solver._INITS)

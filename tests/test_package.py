import pathlib
import re
import types

import cmcpinch

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_all_lists_exactly_the_public_names():
    exported = cmcpinch.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert getattr(cmcpinch, name) is not None
    public = {name for name, value in vars(cmcpinch).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(exported) == public


def test_all_is_the_readme_list():
    # the library section's list of exported names, between its colon
    # and "Everything else"
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"holds it to this list\):(.*?)Everything else",
                       text, re.DOTALL).group(1)
    names = re.findall(r"`(\w+)`", listed)
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(cmcpinch.__all__)

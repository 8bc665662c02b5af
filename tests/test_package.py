import types

import cmcpinch


def test_all_lists_exactly_the_public_names():
    exported = cmcpinch.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert getattr(cmcpinch, name) is not None
    public = {name for name, value in vars(cmcpinch).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(exported) == public

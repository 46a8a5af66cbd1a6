import pytest

from ladderforge.errors import DegenerateCurve, SchemaError, located


def test_located_prefixes_a_schema_error_and_drops_its_chain():
    with pytest.raises(SchemaError, match=r"^f\.csv line 2: rung_bps: bad$") as info:
        with located("f.csv line 2: rung_bps"):
            raise SchemaError("bad")
    assert info.value.__cause__ is None
    assert info.value.__suppress_context__


@pytest.mark.parametrize("error", [ValueError("bad"), DegenerateCurve("bad"), OSError("bad")])
def test_located_lets_every_other_error_through_unchanged(error):
    with pytest.raises(type(error)) as info:
        with located("f.csv"):
            raise error
    assert info.value is error

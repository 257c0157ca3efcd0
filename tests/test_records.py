"""The record contract: every record of the package is a typing.NamedTuple."""

import pytest

from ratiolab import (
    SampleRecord,
    assess_admissibility,
    check_bounds,
    normalize,
    order_roots,
    ratios_direct,
    steiner_inellipse,
)


def _cubic():
    return order_roots(-1.0, 0.3 + 0.5j, 1.0)


# (record, its fields in order)
_RECORDS = {
    "OrderedCubic": (_cubic, ("w1", "w2", "w3", "z1", "z2", "coincident")),
    "NormalizedCubic": (lambda: normalize(_cubic()), ("w2n", "w3n", "offset", "w")),
    "AdmissibilityReport": (
        lambda: assess_admissibility(0.3 + 0.5j, 1.0),
        ("admissible", "on_boundary", "reasons"),
    ),
    "RatioVector": (lambda: ratios_direct(_cubic()), ("sigma1", "sigma2", "path")),
    "TheoremReport": (
        lambda: check_bounds(ratios_direct(_cubic()))[0],
        ("claim_id", "passed", "witness", "margin", "note"),
    ),
    "SampleRecord": (
        lambda: SampleRecord(0.3 + 0.5j, 0.4 + 0.1j, 0.6 - 0.1j, "direct", "generic"),
        ("w", "sigma1", "sigma2", "path", "classification"),
    ),
    "InEllipse": (
        lambda: steiner_inellipse(_cubic()),
        ("center", "focus1", "focus2", "semi_major", "semi_minor", "tangency_points"),
    ),
}


@pytest.mark.parametrize("name", list(_RECORDS))
def test_record_is_a_named_tuple(name):
    make, fields = _RECORDS[name]
    rec = make()
    assert type(rec).__name__ == name
    # it equals the plain tuple of its fields, in order
    values = tuple(getattr(rec, f) for f in fields)
    assert rec == values and len(rec) == len(fields)
    # _replace makes a changed copy and leaves the record as it was
    marker = object()
    changed = rec._replace(**{fields[0]: marker})
    assert changed[0] is marker and changed[1:] == values[1:]
    assert rec == values
    # its fields cannot be set, nor new attributes added
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], marker)
    with pytest.raises(AttributeError):
        rec.extra = marker

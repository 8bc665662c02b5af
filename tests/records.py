"""replace for the package's records, from their fields and constructor.

Every record lists its fields in ``_fields``, so a copy with some fields
changed is the constructor called with the others copied; it shares no
code with AnalysisReport.at, which builds its reports field by field.
"""


def replace(record, **changes):
    """record with the named fields changed; a name that is no field is
    the constructor's TypeError, as in dataclasses.replace."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})

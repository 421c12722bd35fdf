"""Exception and warning types shared across the package.

Every error that names a column or row does so in its message so that CLI
users can act on it without a stack trace.
"""


class MixedSynthError(Exception):
    """Base class for all package errors."""


class SchemaError(MixedSynthError):
    """Schema file or schema/data mismatch problems."""


class UnknownColumnError(SchemaError):
    """A column is present on one side (schema/CSV/spec) but not the other."""


class LevelNotInSchemaError(SchemaError):
    """A categorical cell holds a label the schema does not declare."""


class NonIntegerCountError(SchemaError):
    """A count/ordinal/binary cell failed integer parsing."""


class MissingValueError(SchemaError):
    """An empty or NA cell was found; the model assumes complete data."""


class EmptyColumnError(MixedSynthError):
    """A marginal estimator was requested for a zero-length column."""


class NoCategoricalColumnsError(MixedSynthError):
    """An operation requiring categorical columns got a dataset with none."""


class SingularBlockError(MixedSynthError):
    """A correlation sub-block stayed singular even after jitter."""


class OrthantUnderflowError(MixedSynthError):
    """A categorical orthant's minimax tilting point could not be solved,
    so its draws cannot be made exact; synthesis never falls back."""


class NumericalOverflowError(MixedSynthError):
    """A sampler state became non-finite (iteration index in message)."""


class DegenerateResponseError(MixedSynthError):
    """A response column is constant, so its ranks carry no information."""


class NonNumericResponseError(MixedSynthError):
    """A regression response resolved to a non-numeric column."""


class SchemaMismatchError(MixedSynthError):
    """Data offered to a fitted model does not match the schema it was fit on."""


class RankDeficientError(MixedSynthError):
    """A design matrix is rank deficient even after jitter."""


class MismatchedCoefficientSetsError(MixedSynthError):
    """Pooling was attempted over fits with different coefficient names."""


class ZeroWidthIntervalError(MixedSynthError):
    """An interval-overlap measure is undefined for a zero-width interval."""


class ZeroPosteriorSDError(MixedSynthError):
    """A standardized coefficient difference is undefined for zero posterior SD."""


class InsufficientPoolError(MixedSynthError):
    """A release pool holds fewer synthetic datasets than requested."""


class ArchiveError(MixedSynthError):
    """A model archive is unreadable, unversioned, or from a different build."""


class ConstantColumnWarning(UserWarning):
    """A continuous column is constant; its marginal degenerates to a point mass."""


class SeparationWarning(UserWarning):
    """Logistic fit hit separation; a ridge penalty was applied."""


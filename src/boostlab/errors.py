"""Exception types shared across the library."""


class BoostlabError(Exception):
    """Base class for every error raised by boostlab."""


class MalformedCsv(BoostlabError):
    """A CSV row or cell could not be parsed against the schema."""


class UnknownColumn(BoostlabError):
    """CSV header and schema disagree on the column set."""


class LabelNotBinary(BoostlabError):
    """A label cell is not exactly "0" or "1"."""


class EmptyDataset(BoostlabError):
    """No data rows."""


class DegenerateSchema(BoostlabError):
    """Schema has no feature columns."""


class SingleClassDataset(BoostlabError):
    """An operation that needs both classes got only one."""


class EmptyData(BoostlabError):
    """A fit was called on zero rows."""


class MalformedModel(BoostlabError):
    """A model file is not JSON or does not match the model format it claims."""


class MalformedSchema(BoostlabError):
    """A schema file is not JSON or does not describe a valid schema."""


class NonFiniteScores(BoostlabError):
    """A fit or a model gave raw scores that are NaN or infinite."""


class SchemaMismatch(BoostlabError):
    """Prediction input does not conform to the training schema."""


class LengthMismatch(BoostlabError):
    """Paired vectors differ in length."""


class SingleClassTruth(BoostlabError):
    """ROC needs at least one positive and one negative in the truth vector."""


class NoPositives(BoostlabError):
    """PR curve needs at least one positive in the truth vector."""

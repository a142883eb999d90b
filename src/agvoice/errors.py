"""Exception hierarchy.

InputError covers bad user-supplied data (audio files, manifests,
embeddings);
ConfigError covers weight-file / configuration mismatches. The CLI maps
these to exit codes 2 and 3 respectively; anything else is internal (4).
"""


class AgvError(Exception):
    pass


class InputError(AgvError):
    pass


class ConfigError(AgvError):
    pass


# audio_io
class MalformedContainer(InputError):
    pass


class UnsupportedEncoding(InputError):
    pass


class EmptyAudio(InputError):
    pass


class RateOutOfRange(InputError):
    pass


# dsp
class TooShort(InputError):
    pass


# nn kernels
class ShapeMismatch(AgvError):
    pass


class EvenKernel(ConfigError):
    pass


class IndivisibleHeads(ConfigError):
    pass


class IndivisibleScale(ConfigError):
    pass


class NonFiniteEvaluation(AgvError):
    pass


# aggregation
class EmptyContour(InputError):
    pass


# weights
class InvalidConfig(ConfigError):
    pass


class MissingParameter(ConfigError):
    pass


class BadMagic(ConfigError):
    pass


class HeaderMismatch(ConfigError):
    pass


class TruncatedPayload(ConfigError):
    pass


# evaluation: raised only on user-supplied embeddings
class ZeroNorm(InputError):
    pass


class DimMismatch(InputError):
    pass


class LabelMismatch(AgvError):
    pass

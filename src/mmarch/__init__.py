"""mm-arch: a deterministic cognitive-architecture runtime.

A central production system reads working-memory buffers that peripheral
shadow production systems fill by filtering an activation-ranked middle
memory, which in turn is fed by pluggable generative predictors.
"""

from .chunks import (
    WILDCARD,
    Chunk,
    ChunkFactory,
    Query,
    Template,
    complete_query,
    make_chunk,
    make_query,
    match_query,
)
from .codec import Codebook, bind, pack
from .errors import (
    BindingError,
    ChunkError,
    MMArchError,
    ModelValidationError,
    OwnershipError,
    TemporalOrderError,
    TraceFormatError,
    UnknownEntryError,
    UnsupportedTraceVersion,
)
from .memory import (
    Buffer,
    Context,
    MiddleMemory,
    MMEntry,
    WorkingMemory,
    context_symbols,
    context_vector,
)
from .metrics import metrics
from .model import ActionDef, ModelDefinition, dumps_model, load_model, parse_model, write_model
from .productions import Condition, Production, UtilityLearner
from .runtime import Session, run
from .shadows import ShadowSystem
from .trace import Trace, TraceEvent, read_trace, trace_to_bytes, write_trace

__version__ = "0.1.0"

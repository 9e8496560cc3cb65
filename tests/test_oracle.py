"""Differential oracle: middle memory with every cache and index taken out.

:class:`NaiveMiddleMemory` answers every read from scratch.  Each read
recomputes every live entry's activation through
:meth:`MiddleMemory.activation`, the reference definition, from reach sets
built from the links and freshly built spreading sources, into a per-entry
table by slot of the memory's entries that the shared
:meth:`MiddleMemory._where` reads; a retrieval's candidates come from a scan
of the live slots.  It keeps no table, reads no column and probes no
posting.  Put in place of the runtime's middle memory, it must reproduce the
trace bytes of the real one, whose tables, base-level columns, posted reach
sets, spreading columns, symbol codes and postings are all caches of these
definitions.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mmarch import memory, runtime
from mmarch.chunks import Chunk
from mmarch.errors import ModelValidationError
from mmarch.memory import MiddleMemory, _Table
from mmarch.model import parse_model
from mmarch.runtime import run
from mmarch.trace import trace_to_bytes

from test_acceptance import random_model_docs
from test_runtime import linked_facts_doc, multi_step_model_docs


class NaiveMiddleMemory(MiddleMemory):
    """Every read evaluates every entry again; candidate reads scan."""

    def _table(self, wm, now):
        sources = tuple(
            frozenset(buf.content.values() if isinstance(buf.content, Chunk)
                      else buf.content.known_values())
            for buf in wm.non_empty())
        slots = self._cols.entries
        base = [math.nan if e is None else self.base_level(e, now) for e in slots]
        values = [math.nan if e is None else self.activation(e, wm, now, sources=sources)
                  for e in slots]
        return _Table((now, self._version, sources), base, values)

    def _candidates(self, pattern, tags):
        return [slot for slot, e in enumerate(self._cols.entries)
                if e is not None and (tags is None or e.tag in tags)]


def _same_bytes(model, cycles, seed):
    """The naive memory's trace equals the real one's, with the real one
    switching to columns at ``COLUMN_MIN_ENTRIES`` and with it reading
    columns at every size."""
    real = trace_to_bytes(run(model, cycles, mode="mm", seed=seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(memory, "COLUMN_MIN_ENTRIES", 0)
        assert trace_to_bytes(run(model, cycles, mode="mm", seed=seed)) == real
        patch.setattr(runtime, "MiddleMemory", NaiveMiddleMemory)
        assert trace_to_bytes(run(model, cycles, mode="mm", seed=seed)) == real


def oracle(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@oracle(30)
@given(doc=random_model_docs, seed=st.integers(0, 3))
def test_generated_models_match_the_naive_memory(doc, seed):
    try:
        model = parse_model(doc)
    except ModelValidationError:
        return
    _same_bytes(model, 15, seed)


@oracle(15)
@given(data=st.data())
def test_multi_step_models_match_the_naive_memory(data):
    doc = data.draw(multi_step_model_docs(data.draw(st.sampled_from([0.0, 0.3]))))
    _same_bytes(parse_model(doc), 10, 2)


@oracle(15)
@given(size=st.integers(8, 2 * memory.COLUMN_MIN_ENTRIES),
       noise=st.sampled_from([0.0, 0.3, 1.0]), links=st.integers(0, 4),
       seed=st.integers(0, 9))
def test_linked_facts_match_the_naive_memory(size, noise, links, seed):
    """Sizes fall on both sides of ``COLUMN_MIN_ENTRIES``; noisy runs also
    forget their way across it."""
    doc = linked_facts_doc(size=size, seed=seed, noise=noise, links=links)
    _same_bytes(parse_model(doc), 30, seed)

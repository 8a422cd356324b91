"""The JWINS sharing scheme (Algorithm 1 of the paper).

Per round, a node running JWINS

1. transforms its local model change to the wavelet domain and adds it to the
   accumulated importance scores (Equation 3);
2. samples a sharing fraction ``alpha`` from the randomized cut-off
   distribution and takes the TopK coefficient indices by accumulated score;
3. sends the *current* wavelet coefficients at those indices, plus the
   Elias-gamma-compressed index list, to every neighbor;
4. averages the received partial wavelet vectors with its own coefficients
   using the Metropolis–Hastings weights, substituting its own values for the
   coefficients a neighbor did not share;
5. inverts the wavelet transform to obtain the next round's model and updates
   the accumulator with the whole-round change (Equation 4).

The algorithm works in the coefficient domain.  A node keeps ``F_start``, the
coefficients of its model at the start of the round, so one forward DWT per
round suffices: of the trained model.  Both changes are differences of
coefficients (the DWT is linear): step 1 uses ``F_trained - F_start``, step 5
``F_new - F_start``.  ``F_new``, the coefficients of the model step 5
reconstructs from the averaged vector ``C``, is ``forward(inverse(C))``, an
orthogonal projection of ``C``
(:meth:`~repro.wavelets.transform.WaveletTransform.project_batch`), and becomes
the next round's ``F_start``.  This rests on one invariant: a node's
parameters are written only by its own training and its own aggregate.
``F_start`` is unset until a node's first round, which transforms its start
model.

Steps 1-3 and 4-5 are each written once, over a *pass* of consecutive rows
(:func:`_prepare_pass`, :func:`_aggregate_pass`): the transforms and the
sparse average run on the pass's ``(n, d)`` matrix, what is drawn or encoded
per node (scores, alpha, the float codec) stays per row.  A lock-step round
is cut into passes of about :data:`_PASS_ELEMENTS` elements;
:meth:`JwinsScheme.prepare` and :meth:`JwinsScheme.aggregate` are the one-row
passes.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.compression.float_codec import FloatCodec
from repro.compression.indices import EliasGammaIndexCodec
from repro.compression.sizing import PayloadSize
from repro.core.aggregation import inbox_contributions, partial_weighted_average
from repro.core.config import JwinsConfig
from repro.core.interface import Message, RoundContext, SharingScheme
from repro.core.ranking import WaveletRanker
from repro.exceptions import SimulationError
from repro.sparsification.base import fraction_to_count
from repro.sparsification.topk import topk_indices
from repro.wavelets.transform import IdentityTransform, WaveletTransform

__all__ = ["JwinsScheme", "jwins_factory"]

MESSAGE_KIND = "jwins-partial-wavelets"

#: Elements (rows x model size) one pass transforms in one kernel call: as many
#: whole rows as fit, at least one.  Measured (docs/SCALING.md, "Passes"):
#: stacking rows costs 0.07x the per-row loop at 256 x 300, breaks even near
#: 14 x 18,490 and loses (1.1-1.4x) once a DWT level outgrows the cache.
_PASS_ELEMENTS = 1 << 18


def _rows(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """``vectors`` as a float64 matrix; one vector stays a view (no O(d) copy)."""

    vectors = [np.asarray(vector, dtype=np.float64) for vector in vectors]
    return vectors[0][None] if len(vectors) == 1 else np.stack(vectors)


def _copy_or_none(vector: np.ndarray | None) -> np.ndarray | None:
    """A private float64 copy of a state vector, ``None`` kept."""

    return None if vector is None else np.array(vector, dtype=np.float64)


def _share_passes(schemes: Sequence[SharingScheme]) -> bool:
    """Whether ``schemes`` may run a round through shared row passes.

    A pass uses its first scheme's transform and codecs for all rows, so all
    must be one :class:`JwinsScheme` subtype that inherits ``prepare`` and
    ``aggregate``, built from the same two things a
    scheme derives everything from: model size and an equal
    :class:`~repro.core.config.JwinsConfig`.  Anything else takes the per-row
    default hooks.
    """

    if not schemes:
        return False
    first = schemes[0]
    cls = type(first)
    if cls.prepare is not JwinsScheme.prepare or cls.aggregate is not JwinsScheme.aggregate:
        return False
    return all(
        type(scheme) is cls
        and scheme.transform.model_size == first.transform.model_size
        and (scheme.config is first.config or scheme.config == first.config)
        for scheme in schemes[1:]
    )


def _passes(schemes: Sequence["JwinsScheme"]) -> Iterator[slice]:
    """Consecutive row slices of about :data:`_PASS_ELEMENTS` elements each."""

    step = max(1, _PASS_ELEMENTS // schemes[0].transform.model_size)
    for start in range(0, len(schemes), step):
        yield slice(start, min(start + step, len(schemes)))


def _prepare_pass(
    schemes: Sequence["JwinsScheme"], contexts: Sequence[RoundContext]
) -> list[Message]:
    """Algorithm 1 lines 5-8 for one pass: one stacked DWT, then the rows form.

    The local change is ``F_trained - F_start`` row by row.  Rows whose
    ``F_start`` is unset (a node's first round) take it from one stacked DWT of
    their start models.
    """

    transform = schemes[0].transform
    own_matrix = transform.forward_batch(_rows([context.params_trained for context in contexts]))
    unset = [row for row, scheme in enumerate(schemes) if scheme._start_coefficients is None]
    if unset:
        starts = transform.forward_batch(_rows([contexts[row].params_start for row in unset]))
        for row, start in zip(unset, starts):
            schemes[row]._start_coefficients = start
    change_matrix = np.empty_like(own_matrix)
    for row, scheme in enumerate(schemes):
        np.subtract(own_matrix[row], scheme._start_coefficients, out=change_matrix[row])
    return schemes[0].prepare_from_coefficients(schemes, contexts, change_matrix, own_matrix)


def _aggregate_pass(
    schemes: Sequence["JwinsScheme"],
    contexts: Sequence[RoundContext],
    inboxes: Sequence[list[Message]],
) -> np.ndarray:
    """Algorithm 1 lines 9-12 for one pass: its ``(n, d)`` new models.

    The sparse average, the inverse DWT and the projection giving ``F_new``
    each run once over the pass.  Equation 4 adds ``F_new - F_start`` per row,
    then ``F_new`` is the next ``F_start``.
    """

    first = schemes[0]
    averaged = first.aggregate_coefficients(schemes, contexts, inboxes)
    new_params = first.transform.inverse_batch(averaged)
    new_starts = first.transform.project_batch(averaged)
    for scheme, new_start in zip(schemes, new_starts):
        if first.ranker.use_accumulation:
            scheme.ranker.end_of_round_from_change(new_start - scheme._start_coefficients)
        scheme._start_coefficients = new_start
    return new_params


_Parts = tuple[WaveletTransform | IdentityTransform, FloatCodec, EliasGammaIndexCodec]


def _stateless_parts(model_size: int, config: JwinsConfig) -> _Parts:
    """The transform and the two codecs a node derives from its model size and config.

    None of them holds per-node state, so the nodes of a deployment may share
    one set (:func:`jwins_factory` does).
    """

    if config.use_wavelet:
        transform = WaveletTransform(model_size, wavelet=config.wavelet, levels=config.levels)
    else:
        transform = IdentityTransform(model_size)
    return transform, FloatCodec(), EliasGammaIndexCodec()


class JwinsScheme(SharingScheme):
    """Per-node JWINS state: ranker, cut-off and round state, over a transform and codecs.

    ``parts`` hands in a prebuilt :func:`_stateless_parts` set to share.
    """

    name = "jwins"

    def __init__(
        self,
        node_id: int,
        model_size: int,
        seed: int,
        config: JwinsConfig | None = None,
        *,
        parts: "_Parts | None" = None,
    ) -> None:
        self.node_id = int(node_id)
        self.config = config if config is not None else JwinsConfig()
        self.transform, self._float_codec, self._index_codec = (
            parts if parts is not None else _stateless_parts(model_size, self.config)
        )
        self.ranker = WaveletRanker(self.transform, self.config.use_accumulation)
        self._fixed_alpha = self.config.cutoff.expected_fraction()
        #: ``F_start``: the coefficients of the model the next round starts from.
        self._start_coefficients: np.ndarray | None = None
        self._own_coefficients: np.ndarray | None = None
        self.last_alpha: float | None = None

    @property
    def start_coefficients(self) -> np.ndarray | None:
        """``F_start`` of the node's next round; ``None`` before its first round.

        The coefficients of the model that round starts from.  Callers must not
        mutate it.
        """

        return self._start_coefficients

    # -- extension hook ----------------------------------------------------------
    def _adjust_scores(self, scores: np.ndarray) -> np.ndarray:
        """Hook for subclasses to reweight the ranking scores before TopK.

        The base scheme uses the accumulated scores unchanged; the adaptive
        variant (:class:`repro.core.adaptive.AdaptiveJwinsScheme`) reweights
        them per wavelet band, the direction the paper sketches as future work.
        """

        return scores

    # -- Algorithm 1, lines 5-8 ------------------------------------------------
    def prepare(self, context: RoundContext) -> Message:
        # The pass itself, not ``prepare_rows``: that would hand a subclass
        # overriding ``prepare`` straight back to its own override.
        return _prepare_pass([self], [context])[0]

    @staticmethod
    def prepare_rows(
        schemes: Sequence["JwinsScheme"], contexts: Sequence[RoundContext]
    ) -> list[Message]:
        if not _share_passes(schemes):
            return SharingScheme.prepare_rows(schemes, contexts)
        messages: list[Message] = []
        for rows in _passes(schemes):
            messages += _prepare_pass(schemes[rows], contexts[rows])
        return messages

    @staticmethod
    def prepare_from_coefficients(
        schemes: Sequence["JwinsScheme"],
        contexts: Sequence[RoundContext],
        change_matrix: np.ndarray,
        own_matrix: np.ndarray,
    ) -> list[Message]:
        """Algorithm 1 lines 5-8 for a stack of nodes, from precomputed coefficients.

        Row ``i`` of ``change_matrix``/``own_matrix`` holds the forward DWT of
        node ``i``'s local change / trained model.  :func:`_prepare_pass`
        computes both for a whole pass and calls this once, whether the pass
        holds one node or many, so every message comes from one code path.

        The cut-off list is short, so the rows fall into a few groups of equal
        count — rectangular problems: scores and the alpha draw (from each
        node's own ``context.rng``) stay per row, then every group takes one
        :func:`~repro.sparsification.topk.topk_indices` over its score matrix,
        one gather and one index-codec call over its index matrix.  The float
        codec runs per message (DEFLATE has no batch form).  All ``schemes``
        must share one :class:`~repro.core.config.JwinsConfig`, since a group
        is encoded by its first scheme's codecs.  Each ``own_matrix`` row is
        retained by reference until :meth:`aggregate` consumes it and must not
        be mutated by the caller in between.  ``change_matrix`` is consumed:
        its rows are overwritten with the ranking scores, so a round holds no
        second score matrix beside it.
        """

        first = schemes[0]
        config = first.config
        if any(scheme.config is not config and scheme.config != config for scheme in schemes):
            raise SimulationError("schemes prepared together must share one JwinsConfig")
        coefficient_size = first.ranker.coefficient_size
        own_matrix = np.asarray(own_matrix, dtype=np.float64)
        scores = np.asarray(change_matrix, dtype=np.float64)
        groups: dict[int, list[int]] = {}
        for row, (scheme, context) in enumerate(zip(schemes, contexts)):
            # Assigning a row to itself is free (numpy skips the copy).
            scores[row] = scheme._adjust_scores(
                scheme.ranker.round_scores_from_change(scores[row])
            )
            if config.use_random_cutoff:
                alpha = config.cutoff.sample(context.rng)
            else:
                alpha = scheme._fixed_alpha
            scheme.last_alpha = alpha
            scheme._own_coefficients = own_matrix[row]
            groups.setdefault(fraction_to_count(alpha, coefficient_size), []).append(row)

        messages: dict[int, Message] = {}
        for count, rows in groups.items():
            indices = topk_indices(scores if len(rows) == len(schemes) else scores[rows], count)
            values = own_matrix[np.asarray(rows)[:, None], indices]
            encoded = first._index_codec.encode(indices, coefficient_size)
            for row, row_indices, row_values, row_encoded in zip(rows, indices, values, encoded):
                scheme = schemes[row]
                scheme.ranker.mark_shared(row_indices)
                compressed_values = scheme._float_codec.compress(row_values)
                messages[row] = Message(
                    sender=scheme.node_id,
                    kind=MESSAGE_KIND,
                    payload={
                        "indices": row_indices,
                        "values": row_values,
                        "alpha": scheme.last_alpha,
                        "coefficient_size": coefficient_size,
                    },
                    size=PayloadSize(
                        values_bytes=compressed_values.size_bytes,
                        metadata_bytes=row_encoded.size_bytes,
                    ),
                    shared_fraction=min(
                        1.0, row_values.size / max(1, contexts[row].model_size)
                    ),
                )
        return [messages[row] for row in range(len(schemes))]

    # -- Algorithm 1, lines 9-12 ------------------------------------------------
    def aggregate(self, context: RoundContext, messages: list[Message]) -> np.ndarray:
        # The one-row pass, for the same reason as ``prepare``.
        return _aggregate_pass([self], [context], [messages])[0]

    @staticmethod
    def aggregate_rows(
        schemes: Sequence["JwinsScheme"],
        contexts: Sequence[RoundContext],
        inboxes: Sequence[list[Message]],
    ) -> Iterator[tuple[slice, np.ndarray]]:
        if not _share_passes(schemes):
            yield from SharingScheme.aggregate_rows(schemes, contexts, inboxes)
            return
        for rows in _passes(schemes):
            yield rows, _aggregate_pass(schemes[rows], contexts[rows], inboxes[rows])

    @staticmethod
    def aggregate_coefficients(
        schemes: Sequence["JwinsScheme"],
        contexts: Sequence[RoundContext],
        inboxes: Sequence[list[Message]],
    ) -> np.ndarray:
        """Algorithm 1 lines 9-10 for a stack of nodes, without the inverse transform.

        The pass-level counterpart of :meth:`prepare_from_coefficients`: row
        ``i`` is node ``i``'s own coefficients (retained by that call, and
        consumed here) partially weighted-averaged with ``inboxes[i]``, still
        in the transform domain.  All rows go through one
        :func:`~repro.core.aggregation.partial_weighted_average`;
        :func:`_aggregate_pass` calls this once, for one row or many.
        """

        owns = [scheme._own_coefficients for scheme in schemes]
        if any(own is None for own in owns):
            raise SimulationError("aggregate called before prepare")
        averaged = partial_weighted_average(
            _rows(owns),
            [context.self_weight for context in contexts],
            [
                inbox_contributions(context, inbox, MESSAGE_KIND, "JWINS")
                for context, inbox in zip(contexts, inboxes)
            ],
        )
        for scheme in schemes:
            scheme._own_coefficients = None
        return averaged

    # -- checkpointing -----------------------------------------------------------
    def state_dict(self) -> dict:
        """Accumulated scores, ``F_start`` and the in-flight round state (if any).

        The arrays are the live ones: encoding a snapshot copies them.
        """

        return {
            "ranker": self.ranker.state_dict(),
            "start_coefficients": self._start_coefficients,
            "own_coefficients": self._own_coefficients,
            "last_alpha": None if self.last_alpha is None else float(self.last_alpha),
        }

    def load_state_dict(self, state) -> None:
        """Restore state captured by :meth:`state_dict`."""

        self.ranker.load_state_dict(state["ranker"])
        self._start_coefficients = _copy_or_none(state["start_coefficients"])
        self._own_coefficients = _copy_or_none(state["own_coefficients"])
        alpha = state["last_alpha"]
        self.last_alpha = None if alpha is None else float(alpha)


def jwins_factory(config: JwinsConfig | None = None):
    """Return a :data:`~repro.core.interface.SchemeFactory` building JWINS nodes.

    The nodes of one model size share one transform and one pair of codecs.
    """

    shared: dict[int, _Parts] = {}

    def factory(node_id: int, model_size: int, seed: int) -> JwinsScheme:
        if model_size not in shared:
            shared[model_size] = _stateless_parts(model_size, config or JwinsConfig())
        return JwinsScheme(node_id, model_size, seed, config, parts=shared[model_size])

    return factory

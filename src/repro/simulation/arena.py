"""The arena engine: contiguous ``(N, d)`` node-state arenas with batched kernels.

The per-node engine (:func:`~repro.simulation.engine.build_nodes`) stores one
private model per :class:`~repro.simulation.node.SimulationNode`, and the
per-row stage kernels of :mod:`repro.simulation.engine` drive train/encode/
aggregate as a Python loop over nodes.  That is faithful to the original
process-per-client deployment but caps the fig10 scalability reproduction at a
few dozen nodes: the round cost is dominated by per-node, per-tensor Python
overhead, not by arithmetic.

This module batches the node *state* instead.  All mutable per-node training
state lives in three contiguous ``(N, d)`` float64 arenas — parameters,
gradients and momentum — and every node's :class:`~repro.nn.module.Parameter`
objects are rebound to row views into them (:func:`build_arena_nodes`).  The
lock-step loop (:class:`~repro.simulation.engine.SynchronousMode`) then runs
its train/encode/aggregate stages through the ``*_batched`` kernels below,
which replace the hottest per-node loops with whole-arena numpy operations:

* the SGD update of a local step runs once over all active rows
  (:meth:`NodeArenas.step_rows`) instead of once per node per tensor, and so
  does the gradient zeroing before it (one ``arenas.grads[rows] = 0`` for N
  ``model.zero_grad()`` traversals);
* the three DWT passes of a JWINS round (scores change, own coefficients,
  end-of-round change) each run as one batched
  :meth:`~repro.wavelets.transform.ModelTransform.forward_batch` /
  :meth:`~repro.wavelets.transform.ModelTransform.inverse_batch` call over a
  stacked coefficient matrix;
* Algorithm 1 lines 5-8 run once a round through the rows form of
  :meth:`~repro.core.jwins.JwinsScheme.prepare_from_coefficients`: the cut-off
  list is short (seven fractions by default), so the N messages fall into a
  few groups of equal count, and each group takes one row-wise TopK, one
  gather and one Elias-gamma call over its ``(n_g, k)`` index matrix;
* the averaged models are written back in one ``arenas.params[rows] = ...``
  assignment instead of N ``set_parameters`` calls.

What stays per node, and why: the alpha draw and :meth:`Simulator.make_context`
(every node owns its RNG streams, derived per node and round), the float codec
(DEFLATE has no batch form and the exact wire size needs each message
compressed), :meth:`~repro.core.jwins.JwinsScheme.aggregate_coefficients`
(each inbox is its own sparse average), sampling and forward/backward.
Everything else of a round (scenario state, the byzantine send path, delivery
in drop-RNG draw order, metering, checkpointing) is the loop's own code.

The determinism contract is strict bit-identity: for any configuration,
``config.with_engine("arena")`` produces an
:class:`~repro.simulation.metrics.ExperimentResult` whose ``to_dict()`` is
byte-for-byte equal to the per-node engine's (the equivalence tests in
``tests/simulation/test_arena.py`` and the fuzzer's ``engines`` oracle pin
this down).  The per-row kernels stay the reference; see ``docs/SCALING.md``
for the memory layout and the measured scaling story.

Checkpoints are engine-agnostic: node ``state_dict`` payloads read identically
through the views and the mode state belongs to the shared loop, so a snapshot
taken under one engine resumes under the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.interface import Message, RoundContext, SchemeFactory
from repro.core.jwins import JwinsScheme
from repro.datasets.base import LearningTask
from repro.exceptions import SimulationError
from repro.nn.optim import SGD
from repro.simulation.engine import Simulator, aggregate_rows, build_nodes, encode_rows
from repro.simulation.experiment import ExperimentConfig
from repro.simulation.node import SimulationNode
from repro.wavelets.transform import ModelTransform, WaveletTransform

__all__ = [
    "ArenaSGD",
    "NodeArenas",
    "build_arena_nodes",
]


class NodeArenas:
    """Contiguous ``(N, d)`` arenas holding every node's mutable training state.

    One row per node, one column per flat model parameter, laid out in the
    model's deterministic :meth:`~repro.nn.module.Module.parameters` order —
    so row ``i`` of :attr:`params` is exactly node ``i``'s flat parameter
    vector as returned by :func:`~repro.nn.module.get_flat_parameters`.

    Attributes
    ----------
    params:
        ``(N, d)`` parameter values; node models read and write it through
        per-tensor row views.
    grads:
        ``(N, d)`` accumulated gradients, zeroed a row block at a time by
        :func:`train_batched` (or by ``model.zero_grad()`` through the same
        views).
    velocity:
        ``(N, d)`` SGD momentum buffers (all zeros while momentum is 0.0),
        owned jointly with each node's :class:`ArenaSGD`.
    """

    def __init__(self, num_nodes: int, shapes: list[tuple[int, ...]]) -> None:
        if num_nodes <= 0:
            raise SimulationError("an arena needs at least one node row")
        if not shapes:
            raise SimulationError("an arena needs at least one parameter tensor")
        self.num_nodes = int(num_nodes)
        self.shapes = [tuple(int(n) for n in shape) for shape in shapes]
        self.sizes = [int(np.prod(shape)) for shape in self.shapes]
        self.model_size = int(sum(self.sizes))
        bounds = np.concatenate([[0], np.cumsum(self.sizes)])
        self.slices = [
            slice(int(start), int(stop)) for start, stop in zip(bounds[:-1], bounds[1:])
        ]
        self.params = np.zeros((self.num_nodes, self.model_size), dtype=np.float64)
        self.grads = np.zeros_like(self.params)
        self.velocity = np.zeros_like(self.params)

    def tensor_views(
        self, arena: np.ndarray, row: int
    ) -> list[np.ndarray]:
        """Per-tensor views of ``arena``'s row ``row``, reshaped to the model shapes.

        The arenas are C-contiguous, so each ``arena[row, slice]`` segment is
        itself contiguous and the reshape is guaranteed to be a view — writes
        through the returned arrays land in the arena.
        """

        return [
            arena[row, column_range].reshape(shape)
            for column_range, shape in zip(self.slices, self.shapes)
        ]

    def step_rows(self, rows: np.ndarray, lr: float, momentum: float) -> None:
        """One batched SGD update over the given node rows.

        Bit-identical to calling :meth:`repro.nn.optim.SGD.step` on each
        node: the update is elementwise (``v = m*v + g``; ``p -= lr*u``) and
        elementwise float operations commute with row batching.  Weight decay
        is intentionally unsupported — the simulator never configures it.
        """

        if rows.size == 0:
            return
        if momentum:
            self.velocity[rows] *= momentum
            self.velocity[rows] += self.grads[rows]
            self.params[rows] -= lr * self.velocity[rows]
        else:
            self.params[rows] -= lr * self.grads[rows]


class ArenaSGD(SGD):
    """SGD whose momentum buffers are views into the shared velocity arena.

    Behaviorally identical to :class:`~repro.nn.optim.SGD` — ``step`` and
    ``state_dict`` keep the base behaviour and operate in place on the views —
    except that :meth:`load_state_dict` writes *through* the views instead of
    replacing the buffer list, which would silently sever the node from the
    arena and break the batched update path after a checkpoint restore.
    """

    def __init__(
        self,
        parameters,
        lr: float,
        momentum: float,
        velocity_views: list[np.ndarray],
    ) -> None:
        super().__init__(parameters, lr=lr, momentum=momentum)
        if len(velocity_views) != len(self.parameters):
            raise SimulationError(
                f"expected {len(self.parameters)} velocity views, "
                f"got {len(velocity_views)}"
            )
        for view, parameter in zip(velocity_views, self.parameters):
            if view.shape != parameter.value.shape:
                raise SimulationError(
                    f"velocity view shape {view.shape} does not match "
                    f"parameter shape {parameter.value.shape}"
                )
        self._velocity = list(velocity_views)

    def state_dict(self) -> dict:
        """Serialize exactly like :class:`~repro.nn.optim.SGD`.

        The velocity views read back the arena rows, so the inherited
        serialization is already exact; the method is defined explicitly so
        the pairing with the view-preserving :meth:`load_state_dict` is
        complete under the snapshot protocol.
        """

        return super().state_dict()

    def load_state_dict(self, state: dict) -> None:
        """Restore checkpointed momentum by writing through the arena views."""

        velocity = [np.asarray(buffer, dtype=np.float64) for buffer in state["velocity"]]
        if len(velocity) != len(self.parameters):
            raise SimulationError(
                f"checkpointed optimizer holds {len(velocity)} momentum buffers, "
                f"this optimizer tracks {len(self.parameters)} parameters"
            )
        for buffer, view in zip(velocity, self._velocity):
            if buffer.shape != view.shape:
                raise SimulationError(
                    f"momentum buffer shape {buffer.shape} does not match "
                    f"parameter shape {view.shape}"
                )
            view[...] = buffer


def build_arena_nodes(
    task: LearningTask,
    scheme_factory: SchemeFactory,
    config: ExperimentConfig,
) -> tuple[list[SimulationNode], NodeArenas]:
    """Build per-node simulation nodes whose state lives in shared arenas.

    Delegates all construction (data partitioning, model initialization,
    scheme seeding) to :func:`~repro.simulation.engine.build_nodes` so every
    RNG stream is consumed in exactly the per-node order, then migrates each
    node's parameter values, gradients and momentum buffers into the
    ``(N, d)`` arenas and rebinds the node's
    :class:`~repro.nn.module.Parameter` objects (and its optimizer, swapped
    for :class:`ArenaSGD`) to row views.  The nodes remain fully functional
    per-node objects — ``local_training``, ``state_dict`` and evaluation work
    unchanged — which is what keeps checkpoints and the async mode
    engine-agnostic.
    """

    nodes = build_nodes(task, scheme_factory, config)
    shapes = [parameter.shape for parameter in nodes[0].parameters]
    arenas = NodeArenas(config.num_nodes, shapes)
    for node in nodes:
        row = node.node_id
        # The node's own list: rebinding the same Parameter objects keeps it
        # (and everything the node routes through it) bound to the arena.
        parameters = node.parameters
        if [parameter.shape for parameter in parameters] != arenas.shapes:
            raise SimulationError(
                f"node {row} has a different parameter layout than node 0; "
                "the arena engine requires homogeneous models"
            )
        value_views = arenas.tensor_views(arenas.params, row)
        grad_views = arenas.tensor_views(arenas.grads, row)
        for parameter, value_view, grad_view in zip(parameters, value_views, grad_views):
            value_view[...] = parameter.value
            grad_view[...] = parameter.grad
            parameter.value = value_view
            parameter.grad = grad_view
        velocity_views = arenas.tensor_views(arenas.velocity, row)
        for view, buffer in zip(velocity_views, node.optimizer.state_dict()["velocity"]):
            view[...] = buffer
        node.optimizer = ArenaSGD(
            parameters,
            lr=node.optimizer.lr,
            momentum=node.optimizer.momentum,
            velocity_views=velocity_views,
        )
    return nodes, arenas


@dataclass(frozen=True)
class _JwinsBatchPlan:
    """Proof that a round's schemes can run through the batched JWINS path."""

    transform: ModelTransform
    use_accumulation: bool


def _jwins_batch_plan(nodes: list[SimulationNode]) -> _JwinsBatchPlan | None:
    """Whether (and how) the active nodes' schemes admit batched DWT dispatch.

    The batched path is taken only when every scheme is the same
    :class:`~repro.core.jwins.JwinsScheme` subtype that inherits ``prepare``/
    ``aggregate``/``finalize`` unchanged (so the coefficient-level entry
    points cover the whole protocol), all transforms agree and all
    :class:`~repro.core.config.JwinsConfig` are equal (a count-group is
    selected and encoded in one call, with one cut-off and one codec pair).
    Anything else — mixed schemes, a baseline scheme, a subclass overriding
    the round protocol, a factory configuring nodes differently — falls back
    to per-node scheme calls, still on arena-backed state.
    """

    if not nodes:
        return None
    first = nodes[0].scheme
    if not isinstance(first, JwinsScheme):
        return None
    cls = type(first)
    if (
        cls.prepare is not JwinsScheme.prepare
        or cls.aggregate is not JwinsScheme.aggregate
        or cls.finalize is not JwinsScheme.finalize
    ):
        return None
    transform = first.transform
    for node in nodes[1:]:
        scheme = node.scheme
        if type(scheme) is not cls:
            return None
        other = scheme.transform
        if type(other) is not type(transform):
            return None
        if (
            other.model_size != transform.model_size
            or other.coefficient_size() != transform.coefficient_size()
        ):
            return None
        if isinstance(transform, WaveletTransform) and (
            other.wavelet != transform.wavelet or other.levels != transform.levels
        ):
            return None
        if scheme.config is not first.config and scheme.config != first.config:
            return None
    return _JwinsBatchPlan(
        transform=transform, use_accumulation=first.ranker.use_accumulation
    )


def _change_since_start(matrix: np.ndarray, contexts: list[RoundContext]) -> np.ndarray:
    """``matrix`` minus the stacked ``params_start`` rows, in the stack's own buffer.

    One ``(N, d)`` temporary instead of two, and it dies with the expression
    that consumes it — the stage matrices are what ``peak_rss_mib`` sees.
    """

    change = np.stack([context.params_start for context in contexts])
    return np.subtract(matrix, change, out=change)


# -- batched stage kernels ---------------------------------------------------------
# The arena forms of the layout-dependent stages of the lock-step loop: same
# signatures as the per-row ``*_rows`` kernels, one profiler interval a stage.
def train_batched(
    simulator: Simulator, active_nodes: list[SimulationNode]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stage ``train``, step-major: one batched SGD update per local step.

    All active gradient rows are zeroed at once, every active node samples,
    forwards and backwards its own mini-batch (per-node RNG streams are
    independent, so the reorder is bit-safe), then one
    :meth:`NodeArenas.step_rows` call updates all active rows at once.
    """

    config = simulator.config
    arenas = simulator.arenas
    active_rows = np.asarray([node.node_id for node in active_nodes], dtype=np.int64)
    with simulator.profile("train"):
        start_matrix = arenas.params[active_rows]  # index arrays select copies
        losses: list[list[float]] = [[] for _ in active_nodes]
        for node in active_nodes:
            node.set_training(True)
        for _ in range(config.local_steps):
            arenas.grads[active_rows] = 0.0  # every node's model.zero_grad() at once
            for position, node in enumerate(active_nodes):
                inputs, targets = node.sample_batch()
                outputs = node.model.forward(inputs)
                losses[position].append(node.loss.forward(outputs, targets))
                node.model.backward(node.loss.backward())
            arenas.step_rows(active_rows, config.learning_rate, config.momentum)
        for position, node in enumerate(active_nodes):
            node.last_train_loss = float(np.mean(losses[position]))
        trained_matrix = arenas.params[active_rows]
    return list(zip(start_matrix, trained_matrix))


def encode_batched(
    simulator: Simulator, active_nodes: list[SimulationNode], contexts: list[RoundContext]
) -> dict[int, Message]:
    """Stage ``encode``: two batched forward DWTs, then one scheme call for all rows.

    Schemes without a batch plan take the per-row kernel, on arena-backed state.
    """

    plan = _jwins_batch_plan(active_nodes)
    if plan is None:
        return encode_rows(simulator, active_nodes, contexts)
    with simulator.profile("encode"):
        presented_matrix = np.stack([context.params_trained for context in contexts])
        change_matrix = plan.transform.forward_batch(
            _change_since_start(presented_matrix, contexts)
        )
        own_matrix = plan.transform.forward_batch(presented_matrix)
        del presented_matrix  # consumed: one (N, d) matrix less under the peak
        prepared = active_nodes[0].scheme.prepare_from_coefficients(
            [node.scheme for node in active_nodes], contexts, change_matrix, own_matrix
        )
        return {
            node.node_id: simulator.record_prepared_message(node, context, message)
            for node, context, message in zip(active_nodes, contexts, prepared)
        }


def aggregate_batched(
    simulator: Simulator,
    active_nodes: list[SimulationNode],
    contexts: list[RoundContext],
    inboxes: list[list[Message]],
) -> None:
    """Stage ``aggregate``: one batched inverse DWT over all averaged rows.

    Each node's weighted coefficient average is collected per row, the
    end-of-round accumulator update is fed from one batched forward DWT of the
    round changes, and the new models land in the arena in one assignment.
    Schemes without a batch plan take the per-row kernel.
    """

    plan = _jwins_batch_plan(active_nodes)
    if plan is None:
        return aggregate_rows(simulator, active_nodes, contexts, inboxes)
    with simulator.profile("aggregate"):
        new_matrix = plan.transform.inverse_batch(
            np.stack(
                [
                    node.scheme.aggregate_coefficients(context, inbox)
                    for node, context, inbox in zip(active_nodes, contexts, inboxes)
                ]
            )
        )
        arenas = simulator.arenas
        active_rows = [node.node_id for node in active_nodes]
        if new_matrix.shape != (len(active_rows), arenas.model_size):
            raise SimulationError(
                f"aggregation produced a {new_matrix.shape} matrix for "
                f"{len(active_rows)} models of {arenas.model_size} parameters"
            )
        if plan.use_accumulation:
            round_change_matrix = plan.transform.forward_batch(
                _change_since_start(new_matrix, contexts)
            )
            for node, round_change in zip(active_nodes, round_change_matrix):
                node.scheme.finalize_from_change(round_change)
        # One assignment for N set_parameters() calls; the nodes' Parameter
        # views stay bound to the arena.
        arenas.params[active_rows] = new_matrix

"""The arena engine: contiguous ``(N, d)`` node-state arenas and their train stage.

The per-node engine (:func:`~repro.simulation.engine.build_nodes`) stores one
private model per :class:`~repro.simulation.node.SimulationNode`, faithful to
the original process-per-client deployment.  This module changes where that
*state* lives, and nothing else.  All mutable per-node training state sits in
two contiguous ``(N, d)`` float64 arenas — parameters and gradients — and every
node's :class:`~repro.nn.module.Parameter` objects are rebound to row views
into them (:func:`build_arena_nodes`).  The one stage of the lock-step loop
(:class:`~repro.simulation.engine.SynchronousMode`) that depends on the layout
is ``train``, and :func:`train_batched` is its arena form:

* the SGD update of a local step runs once over all active rows
  (:meth:`NodeArenas.step_rows`) instead of once per node per tensor, and so
  does the gradient zeroing before it (one ``arenas.grads[rows] = 0`` for N
  ``model.zero_grad()`` traversals);
* sampling stays per node — every node owns its batch RNG stream and its
  data — but when the nodes train one
  :class:`~repro.nn.models.MLPClassifier` shape under a
  :class:`~repro.nn.losses.CrossEntropyLoss` and their batches share a shape,
  forward, loss and backward run once, on a model whose parameters carry a
  member axis over the active rows (:func:`_stacked_step`); row ``r`` of
  every product is the node's own 2-D call, so the gradients are
  bit-identical.  Any other model, or a step whose batches differ in shape,
  runs :meth:`~repro.simulation.node.SimulationNode.backpropagate` per node.

``encode`` and ``aggregate`` are the same functions for both layouts
(:func:`repro.simulation.engine.encode`/:func:`~repro.simulation.engine.aggregate`):
the scheme class decides how many rows share a DWT or a TopK call, the engine
writes each block of new models back — here in one ``arenas.params[rows] =
block`` assignment instead of one ``set_parameters`` per node.  This module
therefore knows no sharing scheme, no transform and no codec.

The determinism contract is strict bit-identity: for any configuration,
``replace(config, engine="arena")`` produces an
:class:`~repro.simulation.metrics.ExperimentResult` whose ``to_dict()`` is
byte-for-byte equal to the per-node engine's (the equivalence tests in
``tests/simulation/test_arena.py`` and the fuzzer's ``engines`` oracle pin
this down); see ``docs/SCALING.md`` for the memory layout and the measured
scaling story.

Checkpoints are engine-agnostic: node ``state_dict`` payloads read identically
through the views and the mode state belongs to the shared loop, so a snapshot
taken under one engine resumes under the other.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.interface import SchemeFactory
from repro.datasets.base import LearningTask
from repro.exceptions import SimulationError
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLPClassifier
from repro.simulation.engine import Simulator, build_nodes
from repro.simulation.experiment import ExperimentConfig
from repro.simulation.node import SimulationNode

__all__ = [
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

    def member_views(self, block: np.ndarray) -> list[np.ndarray]:
        """Per-tensor views of an ``(n, d)`` row block with a leading member axis.

        Tensor ``t`` is ``block[:, slice_t]`` reshaped to ``(n, *shape_t)``;
        splitting the contiguous last axis keeps it a view.
        """

        return [
            block[:, column_range].reshape(len(block), *shape)
            for column_range, shape in zip(self.slices, self.shapes)
        ]

    def step_rows(self, rows: np.ndarray, lr: float) -> None:
        """One batched SGD update over the given node rows.

        Bit-identical to calling :meth:`repro.nn.optim.SGD.step` on each
        node: the update ``p -= lr * g`` is elementwise, and elementwise float
        operations commute with row batching.
        """

        if rows.size == 0:
            return
        self.params[rows] -= lr * self.grads[rows]


def build_arena_nodes(
    task: LearningTask,
    scheme_factory: SchemeFactory,
    config: ExperimentConfig,
) -> tuple[list[SimulationNode], NodeArenas]:
    """Build per-node simulation nodes whose state lives in shared arenas.

    Delegates all construction (data partitioning, model initialization,
    scheme seeding) to :func:`~repro.simulation.engine.build_nodes` so every
    RNG stream is consumed in exactly the per-node order, then migrates each
    node's parameter values and gradients into the ``(N, d)`` arenas and
    rebinds the node's :class:`~repro.nn.module.Parameter` objects to row
    views; the node's optimizer holds those same objects, so it steps the
    arena too.  The nodes remain fully functional
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
    return nodes, arenas


# -- the layout-dependent stage ----------------------------------------------------
def _stackable(nodes: list[SimulationNode]) -> bool:
    """Whether the nodes can train as one member-axis MLP.

    Exact types only: a subclass may override ``forward``/``backward``.  The
    arena already holds one parameter layout for all nodes.
    """

    return bool(nodes) and all(
        type(node.model) is MLPClassifier and type(node.loss) is CrossEntropyLoss
        for node in nodes
    )


def _stacked_step(
    template: MLPClassifier,
    arenas: NodeArenas,
    rows: np.ndarray,
    batches: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """One local step of every row on its batch, in one forward/loss/backward.

    A copy of ``template`` is bound to the rows' parameters and their zeroed
    gradient rows, so the gradients land as ``0.0 + g``, as each node's own
    step lands them.  Consecutive rows (no node offline) are bound in place;
    others are gathered into blocks, the gradients written back.  The copy
    and its blocks die with the call, before the SGD step allocates its own.
    Returns the rows' losses.
    """

    model = copy.deepcopy(template)
    consecutive = bool(np.all(np.diff(rows) == 1))
    block = slice(rows[0], rows[-1] + 1) if consecutive else rows
    grads = arenas.grads[block] if consecutive else np.zeros((rows.size, arenas.model_size))
    for parameter, value, grad in zip(
        model.parameters(), arenas.member_views(arenas.params[block]), arenas.member_views(grads)
    ):
        parameter.value, parameter.grad = value, grad
    loss = CrossEntropyLoss()
    losses = loss.forward(
        model.forward(np.stack([inputs for inputs, _ in batches])),
        np.stack([targets for _, targets in batches]),
    )
    model.backward(loss.backward())
    if not consecutive:
        arenas.grads[rows] = grads
    return losses


def train_batched(
    simulator: Simulator, active_nodes: list[SimulationNode]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stage ``train``, step-major: one batched SGD update per local step.

    Same signature as :func:`repro.simulation.engine.train_rows`.  All active
    gradient rows are zeroed at once, every active node samples its own
    mini-batch and backpropagates it (per-node RNG streams are independent, so
    the reorder is bit-safe) — all rows in one
    :func:`_stacked_step` when the nodes are :func:`_stackable` and their
    batches share a shape — then one :meth:`NodeArenas.step_rows` call updates
    all active rows at once.
    """

    config = simulator.config
    arenas = simulator.arenas
    active_rows = np.asarray([node.node_id for node in active_nodes], dtype=np.int64)
    start_matrix = arenas.params[active_rows]  # index arrays select copies
    losses = np.empty((len(active_nodes), config.local_steps))
    for node in active_nodes:
        node.set_training(True)
    stackable = _stackable(active_nodes)
    for step in range(config.local_steps):
        arenas.grads[active_rows] = 0.0  # every node's model.zero_grad() at once
        if not stackable:
            step_losses = [node.backpropagate_batch() for node in active_nodes]
        else:
            batches = [node.sample_batch() for node in active_nodes]
            if len({(inputs.shape, targets.shape) for inputs, targets in batches}) == 1:
                step_losses = _stacked_step(
                    active_nodes[0].model, arenas, active_rows, batches
                )
            else:
                step_losses = [
                    node.backpropagate(*batch) for node, batch in zip(active_nodes, batches)
                ]
        losses[:, step] = step_losses
        arenas.step_rows(active_rows, config.learning_rate)
    # Row means: each row reduced alone, as ``np.mean`` reduces one node's list.
    for node, mean in zip(active_nodes, losses.mean(axis=1).tolist()):
        node.last_train_loss = mean
    trained_matrix = arenas.params[active_rows]
    return list(zip(start_matrix, trained_matrix))

"""DAG representation of CUDA+MPI programs (paper §III-A, Table II).

A program is a directed acyclic graph whose vertices are operations — CPU
ops, GPU kernels (initially unassigned to a stream), and synchronization
ops — and whose edges are dependencies.  The design space of the program
(:mod:`repro.schedule`) is the set of topological traversals of the graph
combined with stream assignments for the GPU vertices.
"""

from repro.dag.graph import Graph
from repro.dag.program import CommPlan, Message, Program
from repro.dag.vertex import Action, ActionKind, OpKind, Vertex, Work, cpu_op, gpu_op

__all__ = [
    "Action",
    "ActionKind",
    "CommPlan",
    "Graph",
    "Message",
    "OpKind",
    "Program",
    "Vertex",
    "Work",
    "cpu_op",
    "gpu_op",
]

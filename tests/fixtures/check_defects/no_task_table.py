"""Seeded defect: a task-table module with the table moved out of it.

No ``DEFAULT_TASKS``, no ``_FACTORY_ATTRS``, no ``compute_task``: the
deps pass must report DS000 naming this module rather than skip its
checks.
"""


def simulate(trace):
    return trace

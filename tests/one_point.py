"""ground_state_scan of ``spinent.eigensolver`` at a single point.

The scan takes a grid of models and returns one entry per model, a
failure among them as the exception itself. Tests that scan one point call
it through scan_one, which raises that exception.
"""

from spinent import eigensolver


def scan_one(workspace, model, **kwargs):
    """The GroundStateReport of ground_state_scan at one model."""
    [entry] = eigensolver.ground_state_scan(workspace, [model], **kwargs)
    if isinstance(entry, Exception):
        raise entry
    return entry

"""Fixtures shared by the test modules."""

from __future__ import annotations

import errno
import os

import pytest

import graphbargain.cli
import graphbargain.dataset
import graphbargain.grids
import graphbargain.optimizer


class DiskFullAfterOneWrite:
    """A file handle whose second write raises ENOSPC, like a disk that fills up mid-file."""

    def __init__(self, *args, **kwargs):
        self.fh = open(*args, **kwargs)
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(data)


@pytest.fixture
def disk_full_after_one_write(monkeypatch):
    """Every edge list the package writes fails at its second write, and it writes one edge per write.

    Forked workers inherit the patched module globals.
    """
    monkeypatch.setattr(graphbargain.dataset, "_WRITE_ROWS", 1)
    monkeypatch.setattr(graphbargain.dataset, "open", DiskFullAfterOneWrite, raising=False)


@pytest.fixture
def one_slot_batches(monkeypatch):
    """Every slot is a batch of its own, so a tiny run at --jobs 2 measures its graphs in worker processes.

    Forked workers inherit the patched module global.
    """
    monkeypatch.setattr(graphbargain.cli, "_BATCH_EDGES", 1)


@pytest.fixture
def search_constants(monkeypatch):
    """Sets the search's population and tolerance, and split_model's holdout share: module constants of the package.

    Each keyword given replaces its constant for the test.
    """

    def setting(*, pop=None, tol=None, holdout=None):
        for module, name, value in (
            (graphbargain.optimizer, "_POPULATION", pop),
            (graphbargain.optimizer, "_TOLERANCE", tol),
            (graphbargain.grids, "_HOLDOUT_FRACTION", holdout),
        ):
            if value is not None:
                monkeypatch.setattr(module, name, value)

    return setting

"""The package's export list: every name in ``__all__`` resolves, and a star
import of the package succeeds."""

from __future__ import annotations

import amalgam_lab


def test_every_exported_name_resolves():
    exported = amalgam_lab.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(amalgam_lab, name)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from amalgam_lab import *", namespace)
    assert set(amalgam_lab.__all__) <= namespace.keys()

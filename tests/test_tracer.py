"""The benchmark's tracer installs on, and restores, the current package.

``perfbench/tracing.py`` patches functions of ``massopt`` by name; a name
it patches that the package no longer has breaks the traced benchmark.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing_module():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patch():
    tracer = _tracing_module().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, attr

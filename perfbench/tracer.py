"""Spans around the public entry points of blocksolve, installed from outside.

Nothing in the library is edited.  `install` replaces chosen functions and
methods by wrappers that append one span per call to an in-memory list:
``[name, start, end, parent, info]`` where `parent` is the index of the
enclosing span (-1 for none) and `info` holds a few per-call facts the
layer metrics need (iteration counts, option prefixes, state checksums).
The list is written out once, when the case ends.

Module-level functions are replaced in every `blocksolve` module that
imported them, so calls through `from .forms import load_vector` are seen
too.  Methods are replaced on the class that defines them.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
import zlib

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, before=None, after=None):
        """Wrapper recording a span per call.  `name` is a string or a
        function of the call arguments; `before(args)` and
        `after(args, result)` return dicts merged into the span's info."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name(args) if callable(name) else name, 0.0, 0.0,
                      stack[-1] if stack else -1, None]
            if before is not None:
                record[4] = before(args)
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                record[4] = {**(record[4] or {}), **after(args, result)}
            return result

        return traced


def _replace_function(fn, wrapper):
    for modname, mod in list(sys.modules.items()):
        if modname == "blocksolve" or modname.startswith("blocksolve."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)


class _Serials:
    """Stable small integers for live objects, without keeping them alive."""

    def __init__(self):
        self._ids = weakref.WeakKeyDictionary()
        self._next = 1

    def __call__(self, obj):
        serial = self._ids.get(obj)
        if serial is None:
            serial = self._ids[obj] = self._next
            self._next += 1
        return serial


def install(tracer):
    """Wrap the layer entry points of blocksolve with spans of `tracer`."""
    from blocksolve import (factory, forms, krylov, mesh, newton, operators,
                            precond, problems, spaces)

    form_serial = _Serials()
    flops = weakref.WeakKeyDictionary()

    def state_checksum(form):
        state = form.context.get("state")
        if state is None:
            return 0
        return zlib.crc32(np.ascontiguousarray(state, dtype=float).data)

    def kernel_key(args):
        form, i, j = args[0], args[1], args[2]
        return {"key": [form_serial(form), int(i), int(j),
                        state_checksum(form)]}

    def matfree_flops(args):
        form = args[0].form
        value = flops.get(form)
        if value is None:
            value = flops[form] = int(form.flops_per_apply())
        return {"flops": value}

    def ksp_its(args, result):
        return {"its": int(result[1].iterations)}

    def newton_its(args, result):
        return {"its": int(result[1].iterations)}

    def prefix(args):
        return {"prefix": args[1]}

    fn = _replace_function
    fn(mesh.build_unit_square,
       tracer.wrap(mesh.build_unit_square, "mesh.build"))
    fn(mesh.build_unit_cube, tracer.wrap(mesh.build_unit_cube, "mesh.build"))
    setattr(spaces.FunctionSpace, "__init__", tracer.wrap(
        spaces.FunctionSpace.__init__, "spaces.function_space"))

    setattr(forms.Form, "block_local_matrices", tracer.wrap(
        forms.Form.block_local_matrices, "forms.kernel", before=kernel_key))
    setattr(forms.Form, "action",
            tracer.wrap(forms.Form.action, "forms.action"))
    setattr(forms.Form, "assemble",
            tracer.wrap(forms.Form.assemble, "forms.assemble"))
    setattr(forms.SpaceEval, "__init__", tracer.wrap(
        forms.SpaceEval.__init__, "forms.space_eval"))
    fn(forms.load_vector, tracer.wrap(forms.load_vector, "forms.load_vector"))
    for residual in (forms.ns_residual, forms.rb_residual,
                     forms.poisson_residual):
        fn(residual, tracer.wrap(residual, "forms.residual"))

    setattr(operators.ImplicitOperator, "apply", tracer.wrap(
        operators.ImplicitOperator.apply, "operators.matfree_apply",
        before=matfree_flops))
    setattr(operators.AssembledOperator, "apply", tracer.wrap(
        operators.AssembledOperator.apply, "operators.csr_apply"))
    for cls in (operators.ImplicitOperator, operators.AssembledOperator):
        setattr(cls, "extract_sub", tracer.wrap(
            cls.extract_sub, "operators.extract_sub"))

    setattr(krylov.KSP, "solve", tracer.wrap(
        krylov.KSP.solve, "krylov.solve", after=ksp_its))

    setattr(precond.Preconditioner, "set_up", tracer.wrap(
        precond.Preconditioner.set_up,
        lambda args: f"precond.{args[0].type_name}.setup"))
    for cls in vars(precond).values():
        if (isinstance(cls, type) and issubclass(cls, precond.Preconditioner)
                and "apply" in vars(cls)):
            setattr(cls, "apply", tracer.wrap(
                cls.apply, f"precond.{cls.type_name}.apply"))
    setattr(precond.SchurOperator, "apply", tracer.wrap(
        precond.SchurOperator.apply, "precond.schur.apply"))

    fn(factory.build_ksp, tracer.wrap(factory.build_ksp, "factory.build_ksp",
                                      before=prefix))
    fn(factory.build_pc, tracer.wrap(factory.build_pc, "factory.build_pc"))

    setattr(newton.NewtonSolver, "solve", tracer.wrap(
        newton.NewtonSolver.solve, "newton.solve", after=newton_its))

    for run in (problems.run_poisson, problems.run_cavity,
                problems.run_convection):
        fn(run, tracer.wrap(run, "problems.run"))
    fn(problems.l2_error, tracer.wrap(problems.l2_error, "problems.l2_error"))

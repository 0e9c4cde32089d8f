"""Outside-in tracer for the ckle layers.

The tracer rebinds public functions and methods of the ``ckle`` modules with
timing wrappers; nothing under ``src/`` is edited.  A module-level function is
rebound in every loaded ``ckle`` module that holds a reference to it (``from
.solver import fit`` copies the name into ``ckle.simulate``, ``ckle.cli``,
``ckle.inference`` and the package), so internal calls are intercepted too.

Each span records its name, start, end, parent span and request id, plus an
``amount`` (array elements for ``log_ndtr``, iterations for ``fit``) and a
``flag`` (1 when the call returned a useful result).  Spans stay in compact
arrays in memory and are written out once, when the run ends.

This module imports only the standard library at import time, so that the
traced CLI child can time ``import ckle`` before loading anything else.
"""

import contextlib
import gzip
import sys
import time
from array import array

_perf = time.perf_counter


def _fam(obj) -> str:
    """Family name of a ``Family`` object or a family name string."""
    return obj if isinstance(obj, str) else getattr(obj, "name", "?")


def _first_fam(args, kwargs):
    return _fam(args[0] if args else kwargs.get("family"))


def _member_fam(args, kwargs):
    """Family of ``self.family`` (ObjectiveContext) or ``config.family`` (StudyConfig)."""
    return _fam(args[0].family)


def _ctx_init_fam(args, kwargs):
    return _fam(args[1] if len(args) > 1 else kwargs.get("family"))


def _size(args, kwargs, out):
    size = getattr(args[0], "size", None)
    return float(size) if size is not None else 1.0


def _fit_outcome(args, kwargs, out):
    return float(out.iterations), int(bool(out.converged))


# (module, attribute, span name or label function, amount function, patch
# every ckle module holding the object?)  A label function returns the span
# name suffix appended after the layer prefix.
_FUNCTIONS = [
    ("ckle.rng", "make_rng", "rng.make_rng", None, True),
    ("ckle.empirical", "build_sample", "empirical.build_sample", None, True),
    ("ckle.models", "log_ndtr", "models.log_ndtr", _size, False),
    ("ckle.models", "quad", "models.quad", None, False),
    ("ckle.objective", "quad", "objective.quad", None, False),
    ("ckle.inference", "quad", "inference.quad", None, False),
    ("ckle.objective", "psi_matrix", ("objective.psi_matrix", _first_fam), None, True),
    ("ckle.objective", "ckl_divergence", ("objective.ckl_divergence", _first_fam), None, True),
    ("ckle.objective", "g_objective", ("objective.g_objective", _first_fam), None, True),
    ("ckle.solver", "fit", ("solver.fit", _first_fam), _fit_outcome, True),
    ("ckle.solver", "minimize_nelder_mead", "solver.nelder_mead", None, True),
    ("ckle.solver", "solve_pareto_profile", "solver.pareto_profile", None, True),
    ("ckle.inference", "sandwich", ("inference.sandwich", _first_fam), None, True),
    ("ckle.inference", "avar_scalar", ("inference.avar", _first_fam), None, True),
    ("ckle.inference", "avar_matrix", ("inference.avar", _first_fam), None, True),
    ("ckle.inference", "c_value", ("inference.c_value", _first_fam), None, True),
    ("ckle.inference", "divergence_interval", ("inference.divergence_interval", _first_fam), None, True),
    ("ckle.inference", "gddt_test", ("inference.gddt_test", _first_fam), None, True),
    ("ckle.inference", "power_approx", ("inference.power_approx", _first_fam), None, True),
    ("ckle.inference", "required_sample_size", ("inference.required_sample_size", _first_fam), None, True),
    ("ckle.simulate", "run_study", ("simulate.run_study", _member_fam), None, True),
]

# (module, class, method, span name or label function)
_METHODS = [
    ("ckle.models", "Family", "draw", ("models.draw", _first_fam)),
    ("ckle.objective", "ObjectiveContext", "__init__", ("objective.context", _ctx_init_fam)),
    ("ckle.objective", "ObjectiveContext", "g", ("objective.g", _member_fam)),
    ("ckle.objective", "ObjectiveContext", "gradient", ("objective.gradient", _member_fam)),
    ("ckle.objective", "ObjectiveContext", "hessian", ("objective.hessian", _member_fam)),
]


class Tracer:
    """Span recorder; ``install`` rebinds the ckle layers, ``uninstall``
    restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self.flag = array("b")
        self._stack: list[int] = []
        self._request = -1
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        i = len(self.end)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request_id.append(self._request)
        self.amount.append(0.0)
        self.flag.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(_perf())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = _perf()
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, rid: int, name: str):
        """Root span of one benchmark request; its descendants share ``rid``."""
        self._request = int(rid)
        i = self._open(name)
        try:
            yield
            self.flag[i] = 1
        finally:
            self._close(i)
            self._request = -1

    def _wrap(self, fn, name, outcome):
        if isinstance(name, tuple):
            prefix, label = name
            name_of = lambda a, k: f"{prefix}.{label(a, k)}"
        else:
            name_of = lambda a, k: name
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(name_of(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if outcome is None:
                tracer.flag[i] = 1
            else:
                value = outcome(args, kwargs, out)
                if isinstance(value, tuple):
                    tracer.amount[i], tracer.flag[i] = value
                else:
                    tracer.amount[i], tracer.flag[i] = value, 1
            return out

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------- patching
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind the ckle layers; ckle must already be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "ckle" or k.startswith("ckle."))]
        for modname, attr, name, outcome, everywhere in _FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(original, name, outcome)
            owners = mods if everywhere else [sys.modules[modname]]
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is original and (everywhere or key == attr):
                        self._set(mod, key, wrapper)
        for modname, clsname, meth, name in _METHODS:
            cls = getattr(sys.modules[modname], clsname)
            self._set(cls, meth, self._wrap(cls.__dict__[meth], name, None))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ reporting
    def __len__(self) -> int:
        return len(self.end)

    def dump(self, path: str) -> None:
        """Write every span as gzip CSV: name,start,end,parent,request,amount,flag."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,request,amount,flag\n")
            names = self.names
            for i in range(len(self.end)):
                fh.write(f"{names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.request_id[i]},{self.amount[i]!r},"
                         f"{self.flag[i]}\n")

    def accumulate(self) -> dict[str, list[float]]:
        """Per-layer accumulators ``[numerator, denominator]``; merging two
        runs is element-wise addition, and a metric is num / den."""
        import numpy as np

        names = self.names
        nk = len(names)
        n = len(self.end)
        if n == 0:
            return {}
        name = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        amount = np.frombuffer(self.amount)
        flag = np.frombuffer(self.flag, dtype=np.int8).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child

        def kinds(pred):
            return np.array([pred(nm) for nm in names], dtype=bool)[name]

        def nearest(is_anchor):
            # index of the nearest ancestor-or-self span that is an anchor;
            # n stands for "none" (pointer jumping over the parent links)
            up = np.where(has_parent, parent, n)
            nxt = np.append(np.where(is_anchor, np.arange(n), up), n)
            while True:
                jumped = nxt[nxt]
                if np.array_equal(jumped, nxt):
                    return nxt[:n]
                nxt = jumped

        is_fit = kinds(lambda nm: nm.startswith("solver.fit."))
        is_root = ~has_parent
        fit_of = nearest(is_fit)
        root_of = nearest(is_root)
        name_ext = np.append(name, -1)

        acc: dict[str, list[float]] = {}

        def add_by_name(prefix, ids, num, den):
            nums = np.bincount(ids, weights=num, minlength=nk)
            dens = np.bincount(ids, weights=den, minlength=nk)
            for j in np.flatnonzero((nums != 0) | (dens != 0)):
                acc[f"{prefix}{names[j]}"] = [float(nums[j]), float(dens[j])]

        ones = np.ones(n)
        add_by_name("total.", name, dur, ones)
        add_by_name("self.", name, self_t, ones)
        add_by_name("amount.", name, amount, ones)
        add_by_name("flag.", name, flag, ones)

        under_fit = (fit_of < n) & ~is_fit
        fit_name = name_ext[fit_of]
        under_root = (root_of < n) & ~is_root
        root_name = name_ext[root_of]
        for mask, owner, what, num in (
                (under_fit & kinds(lambda nm: nm.startswith("objective.g.")), fit_name, "g", ones),
                (under_fit & kinds(lambda nm: nm == "models.log_ndtr"), fit_name, "log_ndtr_points", amount),
                (under_fit & kinds(lambda nm: nm == "solver.nelder_mead"), fit_name, "nm", ones),
                (under_fit & kinds(lambda nm: nm == "solver.nelder_mead"), fit_name, "nm_self", self_t),
                (under_root & kinds(lambda nm: nm == "models.log_ndtr"), root_name, "log_ndtr_points", amount),
                (under_root & kinds(lambda nm: nm.endswith(".quad")), root_name, "quad", ones)):
            if mask.any():
                ids = owner[mask]
                sums = np.bincount(ids, weights=num[mask], minlength=nk)
                for j in np.flatnonzero(sums):
                    acc[f"under.{names[j]}.{what}"] = [float(sums[j]), 0.0]
        return acc


def merge(into: dict[str, list[float]], other: dict[str, list[float]]) -> None:
    for key, (num, den) in other.items():
        slot = into.setdefault(key, [0.0, 0.0])
        slot[0] += num
        slot[1] += den

"""Build-once loader of the compiled loops (``_activate.c``,
``_trajectory.c``, ``_dp.c``, ``_sse.c``) and the header they share
(``_merge.h``).

Four loops of the paper's algorithms run in C, and only in C:

* :meth:`repro.core.kernels.NumpyMergeHeap.activate_staged_all`, the
  online activate-then-drain loop, and
  :meth:`~repro.core.kernels.NumpyMergeHeap.merge_down`, the end-of-input
  phase (``KERNEL.activate``, the only writer of the numpy heap);
* :func:`repro.core.kernels.greedy_merge_trajectory`, the sharded
  engine's merge schedule (``KERNEL.trajectory``);
* :meth:`repro.core.dp._ErrorMatrix.fill_next_row` on the numpy backend,
  one row ``k >= 2`` of the exact DP's error matrix (``KERNEL.dp_row``);
* the ``SSE_max`` of every error budget (Definition 7), one fold
  (``KERNEL.sse_fold``): :func:`repro.core.errors.max_error` calls it
  once over the whole input, the streaming tracker of
  :class:`repro.core.greedy.OnlineReducer` once per chunk.

All four take the merge rule of Proposition 2 from ``_merge.h``: a
tuple's float length, the adjacency rule, the merge key and the merged
row, in the operation order of :func:`repro.core.errors.merge_key` and
:func:`repro.core.merge.merged_row`, plus the typed-buffer check and the
columns loader.  Their Python references live in ``tests/oracles.py``;
the parity suites (``tests/test_native_kernel.py``,
``tests/test_native_trajectory.py``, ``tests/test_native_dp.py``,
``tests/test_native_sse.py``) hold each loop to its oracle bit for bit.

The C files build into one extension module, the first time this module
is imported, with ``sysconfig``'s C compiler and include path, and cached
in the package's ``__pycache__`` under a name keyed by a checksum of all
of the C source and headers, the flags and ``EXT_SUFFIX``; every later
import loads the cached file.  The build writes a temporary file and moves it into
place with ``os.replace``, so concurrent importers never load a
half-written module and one file results.  No compiler, a failed build,
an unwritable cache or a failed load makes importing this module raise
:class:`ImportError` naming the cause.
"""

from __future__ import annotations

import atexit
import os
import shlex
import shutil
import sysconfig
import tempfile
import zlib
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from types import ModuleType
from typing import List, Optional, Tuple

#: Every C file of the module; the first defines its ``PyInit``.
SOURCES = tuple(
    Path(__file__).with_name(name)
    for name in ("_activate.c", "_trajectory.c", "_dp.c", "_sse.c")
)
#: The headers the C files include, hashed with them into the build's name.
HEADERS = (Path(__file__).with_name("_merge.h"),)
CACHE_DIR = Path(__file__).with_name("__pycache__")
#: No ``-ffast-math``, and no contraction to fused multiply-adds (gcc's
#: default): either changes the bits of a merge key or of ``SSE_max``.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"


def compiler() -> Optional[List[str]]:
    """``sysconfig``'s C compiler command, or ``None`` if it is not on PATH."""
    command = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if not command or shutil.which(command[0]) is None:
        return None
    return command


def cached_path(source: bytes, cache_dir: Path) -> Path:
    """The build's name: a checksum of all C source and headers, the flags
    and the suffix.

    CRC-32 and Adler-32 rather than ``hashlib``, whose OpenSSL import adds
    about 3 MB of resident memory to every process that loads the kernel.
    """
    key = b"\0".join([source, " ".join(FLAGS).encode(), SUFFIX.encode()])
    digest = f"{zlib.crc32(key):08x}{zlib.adler32(key):08x}"
    return cache_dir / f"_activate.{digest}{SUFFIX}"


def _import(path: Path) -> ModuleType:
    spec = spec_from_file_location(f"{__package__}._activate", path)
    assert spec is not None and spec.loader is not None
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reap_at_exit(pid: int) -> None:
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass


def _compile(command: List[str], target: Path) -> Optional[str]:
    """Compile :data:`SOURCES` to ``target``; the failure's cause, or ``None``.

    The compiler is waited for with ``WNOWAIT`` and reaped only at exit.
    Reaping a child adds its peak RSS to ``RUSAGE_CHILDREN`` (at least the
    parent's own high-water mark, since ``posix_spawn`` vforks), which a
    process reporting its own and its children's peak memory would
    otherwise be charged for a one-off build.  The zombie costs one
    process-table slot until exit.
    """
    try:
        target.parent.mkdir(exist_ok=True)
        fd, temporary = tempfile.mkstemp(
            prefix=f".{target.name}.", dir=target.parent
        )
        os.close(fd)
    except OSError as error:
        return f"unwritable cache: {error}"
    include = sysconfig.get_paths()["include"]
    argv = [*command, *FLAGS, f"-I{include}", *map(str, SOURCES),
            "-o", temporary]
    try:
        with tempfile.TemporaryFile() as stderr:
            pid = os.posix_spawnp(argv[0], argv, dict(os.environ), file_actions=[
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                (os.POSIX_SPAWN_DUP2, stderr.fileno(), 2),
            ])
            atexit.register(_reap_at_exit, pid)
            status = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            stderr.seek(0)
            lines = stderr.read().decode(errors="replace").splitlines()
        if status.si_code != os.CLD_EXITED or status.si_status:
            first = next((line for line in lines if line.strip()), "")
            return f"build failed: {first or 'compiler exited abnormally'}"
        os.replace(temporary, target)
        for stale in target.parent.glob(f"_activate.*{SUFFIX}"):
            if stale != target:  # a build of an older source
                stale.unlink(missing_ok=True)
        return None
    except OSError as error:
        return f"build failed: {error}"
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)


def load(
    cache_dir: Path = CACHE_DIR, command: Optional[List[str]] = None
) -> Tuple[Optional[ModuleType], Optional[str]]:
    """The compiled module, building it into ``cache_dir`` if absent.

    Returns ``(module, None)``, or ``(None, reason)`` when it cannot be
    had.  ``command`` defaults to :func:`compiler`.
    """
    try:
        target = cached_path(
            b"\0".join(path.read_bytes() for path in SOURCES + HEADERS),
            cache_dir,
        )
    except OSError as error:
        return None, f"no C source: {error}"
    if not target.exists():
        command = command if command is not None else compiler()
        if command is None:
            return None, "no C compiler: " + (
                sysconfig.get_config_var("CC") or "cc"
            )
        reason = _compile(command, target)
        if reason is not None:
            return None, reason
    try:
        return _import(target), None
    except ImportError as error:
        return None, f"load failed: {error}"


_module, _reason = load()
if _module is None:
    raise ImportError(f"cannot load the compiled loops: {_reason}")
#: The compiled module: ``activate``, ``trajectory``, ``dp_row`` and
#: ``sse_fold``.
KERNEL: ModuleType = _module

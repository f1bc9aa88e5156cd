"""PROC001 (fork/pickle boundary), SHM001 (cleanup on all exit paths)
and RACE001 (cross-context writes to module state).

Each planted violation proves the detection fires; the negatives pin
the idioms cleanup code relies on -- helper-based cleanup and
``weakref.finalize`` registration, the runner's module-level submit
targets, the supervisor's pipe-carrying ``Process`` spawn -- so the
rules stay silent on the real tree.
"""

import textwrap
from pathlib import Path

from repro.analysis import Analyzer
from repro.analysis.rules import rules_for_codes

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


def lint(source, rules):
    analyzer = Analyzer(rules_for_codes(rules))
    return analyzer.lint_source(textwrap.dedent(source), path="<fixture>")


class TestForkBoundary:
    def test_lambda_closure_lock_and_handle(self):
        findings = lint(
            """
            import threading

            def work(x):
                return x

            def dispatch(pool):
                lock = threading.Lock()
                handle = open("f")

                def closure(x):
                    return x

                pool.submit(lambda v: v, 1)
                pool.submit(closure, 2)
                pool.submit(work, lock)
                pool.submit(work, handle)
            """,
            rules=["PROC001"],
        )
        assert [f.code for f in findings] == ["PROC001"] * 4
        messages = " | ".join(f.message for f in findings)
        assert "lambda" in messages
        assert "closure" in messages
        assert "Lock" in messages
        assert "open file handle" in messages

    def test_process_target_and_args(self):
        findings = lint(
            """
            import threading
            from multiprocessing import Process

            def dispatch():
                lock = threading.Lock()

                def closure():
                    pass

                Process(target=closure, args=(lock,))
            """,
            rules=["PROC001"],
        )
        assert [f.code for f in findings] == ["PROC001", "PROC001"]

    def test_shared_memory_handle_across_boundary(self):
        findings = lint(
            """
            from multiprocessing.shared_memory import SharedMemory

            def work(x):
                return x

            def dispatch(pool):
                shm = SharedMemory(name="seg")
                pool.submit(work, shm)
            """,
            rules=["PROC001"],
        )
        assert [f.code for f in findings] == ["PROC001"]
        assert "attach by name" in findings[0].message

    def test_module_function_and_plain_data_are_fine(self):
        findings = lint(
            """
            def work(x, y=0):
                return x + y

            def dispatch(pool, windows):
                pool.submit(work, windows, y=2)
                pool.submit(work, [1, 2, 3])
            """,
            rules=["PROC001"],
        )
        assert findings == []

    def test_shipped_runner_and_supervisor_are_clean(self):
        analyzer = Analyzer(rules_for_codes(["PROC001"]))
        findings = analyzer.lint_paths(
            [
                SRC_ROOT / "repro" / "experiments" / "runner.py",
                SRC_ROOT / "repro" / "gateway" / "supervisor.py",
            ]
        )
        assert findings == [], "\n".join(f.render() for f in findings)


class TestSharedResourceCleanup:
    def test_bare_create_is_flagged(self):
        findings = lint(
            """
            from multiprocessing.shared_memory import SharedMemory

            def publish():
                return SharedMemory(create=True, size=64)
            """,
            rules=["SHM001"],
        )
        assert [f.code for f in findings] == ["SHM001"]

    def test_orphan_tempfiles_are_flagged(self):
        findings = lint(
            """
            import tempfile

            def scratch():
                fd, path = tempfile.mkstemp()
                spool = tempfile.NamedTemporaryFile(delete=False)
                return path, spool
            """,
            rules=["SHM001"],
        )
        assert [f.code for f in findings] == ["SHM001", "SHM001"]

    def test_attach_without_create_is_fine(self):
        findings = lint(
            """
            from multiprocessing.shared_memory import SharedMemory

            def attach(name):
                return SharedMemory(name=name)
            """,
            rules=["SHM001"],
        )
        assert findings == []

    def test_try_finally_cleanup_is_evidence(self):
        findings = lint(
            """
            from multiprocessing.shared_memory import SharedMemory

            def publish(payload):
                shm = SharedMemory(create=True, size=64)
                try:
                    shm.buf[: len(payload)] = payload
                finally:
                    shm.close()
                    shm.unlink()
            """,
            rules=["SHM001"],
        )
        assert findings == []

    def test_except_reraise_through_module_helper_is_evidence(self):
        # Cleanup concentrated in one helper, the creating function
        # reraises after calling it.
        findings = lint(
            """
            from multiprocessing.shared_memory import SharedMemory

            def _cleanup_segment(shm):
                shm.close()
                shm.unlink()

            def publish(payload):
                shm = SharedMemory(create=True, size=64)
                try:
                    shm.buf[: len(payload)] = payload
                except BaseException:
                    _cleanup_segment(shm)
                    raise
                return shm
            """,
            rules=["SHM001"],
        )
        assert findings == []

    def test_weakref_finalize_is_evidence(self):
        findings = lint(
            """
            import weakref
            from multiprocessing.shared_memory import SharedMemory

            def _release(shm):
                shm.close()

            class Plane:
                def __init__(self):
                    self.shm = SharedMemory(create=True, size=64)
                    weakref.finalize(self, _release, self.shm)
            """,
            rules=["SHM001"],
        )
        assert findings == []

    def test_class_close_method_is_evidence(self):
        findings = lint(
            """
            from multiprocessing.shared_memory import SharedMemory

            class Plane:
                def __init__(self):
                    self.shm = SharedMemory(create=True, size=64)

                def close(self):
                    self.shm.close()
                    self.shm.unlink()
            """,
            rules=["SHM001"],
        )
        assert findings == []

    def test_shipped_dataplane_and_snapshot_store_are_clean(self):
        analyzer = Analyzer(rules_for_codes(["SHM001"]))
        # The snapshot store's file writes must stay SHM001-clean.
        findings = analyzer.lint_paths([SRC_ROOT / "repro" / "gateway" / "snapshot.py"])
        assert findings == [], "\n".join(f.render() for f in findings)


RACY = """
import asyncio
import threading

_CACHE = {}

def _worker():
    _CACHE["worker"] = 1

async def _serve():
    _CACHE["loop"] = 2

def main():
    threading.Thread(target=_worker).start()
    asyncio.run(_serve())
"""


class TestCrossContextRace:
    def test_async_plus_thread_writer_without_lock(self):
        findings = lint(RACY, rules=["RACE001"])
        assert [f.code for f in findings] == ["RACE001", "RACE001"]
        assert all("_CACHE" in f.message for f in findings)

    def test_child_entry_point_counts_as_worker(self):
        findings = lint(
            """
            _STATE = {}

            def _scorer_child_main(conn):
                _STATE["child"] = 1

            async def _serve():
                _STATE["loop"] = 2
            """,
            rules=["RACE001"],
        )
        assert [f.code for f in findings] == ["RACE001", "RACE001"]

    def test_lock_held_writes_are_fine(self):
        findings = lint(
            """
            import asyncio
            import threading

            _CACHE = {}
            _GUARD = threading.Lock()

            def _worker():
                with _GUARD:
                    _CACHE["worker"] = 1

            async def _serve():
                with _GUARD:
                    _CACHE["loop"] = 2

            def main():
                threading.Thread(target=_worker).start()
            """,
            rules=["RACE001"],
        )
        assert findings == []

    def test_single_context_writers_are_fine(self):
        findings = lint(
            """
            import threading

            _CACHE = {}

            def _worker():
                _CACHE["a"] = 1

            def _other_worker():
                _CACHE["b"] = 2

            async def _reader():
                return _CACHE.get("a")

            def main():
                threading.Thread(target=_worker).start()
                threading.Thread(target=_other_worker).start()
            """,
            rules=["RACE001"],
        )
        assert findings == []

    def test_single_writer_pragma_at_definition(self):
        source = RACY.replace(
            "_CACHE = {}",
            "_CACHE = {}  # lint: allow RACE001 -- single writer: the test",
        )
        assert lint(source, rules=["RACE001"]) == []

    def test_shipped_tree_is_clean(self):
        analyzer = Analyzer(rules_for_codes(["RACE001"]))
        findings = analyzer.lint_paths([SRC_ROOT / "repro"])
        assert findings == [], "\n".join(f.render() for f in findings)

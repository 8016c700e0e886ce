"""Package structure: import graph, import placement, exports, dependencies."""

import ast
import graphlib
import re
import subprocess
import sys
from pathlib import Path

import impsel
from impsel.core import MODELS, NominationProfile
from impsel.generators import FAMILIES
from impsel.mechanisms import KINDS, fixed_sample_winner

SOURCES = sorted(Path(impsel.__file__).parent.glob("*.py"))
MODULES = ("core", "mechanisms", "exact", "generators", "montecarlo", "verify")


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _package_imports(tree):
    """(module imported, names taken) for every import of a sibling module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                for alias in node.names:
                    yield alias.name, ()
            else:
                yield node.module, tuple(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("impsel."):
            yield node.module.split(".")[1], tuple(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("impsel."):
                    yield alias.name.split(".")[1], ()


def test_package_import_graph_is_acyclic():
    graph = {name: {module for module, _ in _package_imports(tree)} for name, tree in _trees().items()}
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert set(graph) <= set(order)
    assert graph["mechanisms"] == {"core"}
    assert graph["core"] == set()


def test_no_import_inside_a_function():
    for name, tree in _trees().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [n for n in ast.walk(func) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not nested, f"{name}.{func.name} imports at line {nested[0].lineno}"


def test_no_private_name_crosses_modules():
    for name, tree in _trees().items():
        for module, names in _package_imports(tree):
            private = [n for n in names if n.startswith("_")]
            assert not private, f"{name} imports {private} from {module}"


def _loaded_by_cli_import(*modules):
    """Which of ``modules`` a fresh interpreter has loaded after ``import impsel.cli``."""
    code = f"import sys, impsel.cli; print(*[m for m in {modules!r} if m in sys.modules])"
    # ``python -c`` puts its working directory first on sys.path
    cwd = Path(impsel.__file__).parents[1]
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, cwd=cwd)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_cli_import_does_not_load_mpmath():
    assert _loaded_by_cli_import("mpmath") == []


def test_cli_import_does_not_load_the_process_pool():
    """Only ``sweep --jobs N`` with N > 1 starts a pool, so no other command pays for its import."""
    assert _loaded_by_cli_import("multiprocessing", "concurrent.futures.process") == []


def test_package_exports_every_module_export():
    want = {"__version__"}
    for name in MODULES:
        want.update(getattr(impsel, name).__all__)
    assert set(impsel.__all__) == want
    assert len(impsel.__all__) == len(want)
    for name in impsel.__all__:
        assert getattr(impsel, name) is not None


def test_family_names_are_spelled_only_in_generators():
    family_name = re.compile("|".join(rf"(?<![\w-]){re.escape(name)}(?![\w-])" for name in FAMILIES))
    for name, tree in _trees().items():
        if name == "generators":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found = family_name.search(node.value)
                assert not found, f"{name}.py:{node.lineno} spells family {found.group()!r}"


def test_kind_names_are_spelled_only_in_mechanisms_and_the_kernel():
    """Each kind is defined once, in ``mechanisms.KINDS``; outside it only
    ``exact.winner_weights`` names one, to pick its score rule."""
    trees = _trees()
    kernel = next(f for f in trees["exact"].body if isinstance(f, ast.FunctionDef) and f.name == "winner_weights")
    allowed = {id(node) for node in ast.walk(kernel)}
    for name, tree in trees.items():
        if name == "mechanisms":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in KINDS:
                assert id(node) in allowed, f"{name}.py:{node.lineno} spells kind {node.value!r}"


def test_only_core_branches_on_a_model():
    def names_a_model(node):
        return (isinstance(node, ast.Name) and node.id in ("SINGLE", "MULTI")) or (
            isinstance(node, ast.Constant) and node.value in MODELS
        )

    for name, tree in _trees().items():
        if name == "core":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                assert not any(map(names_a_model, operands)), f"{name}.py:{node.lineno} compares with a model"


def test_only_core_words_an_integer_check():
    """``core.checked_int`` owns the integer-input messages; p's real range ``[0, 1]`` is its own."""
    shape = re.compile(r"is not an int|need at least|out of range (?!\[)")
    for name, tree in _trees().items():
        if name == "core":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found = shape.search(node.value)
                assert not found, f"{name}.py:{node.lineno} words an integer check: {node.value!r}"


def _method(tree, cls_name: str, name: str):
    cls = next(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == cls_name)
    return next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == name)


def test_config_fields_are_checked_only_in_constructors():
    trees = _trees()
    for name in ("random_k", "simple_k", "fixed", "majority_default"):
        method = _method(trees["mechanisms"], "MechanismSpec", name)
        raises = [n.lineno for n in ast.walk(method) if isinstance(n, ast.Raise)]
        assert not raises, f"MechanismSpec.{name} raises at line {raises[0]}; checks belong in __post_init__"

    def is_number(node):
        return isinstance(node, ast.Constant) and type(node.value) in (int, float)

    # a range check orders values, so no ordering and no numeric operand
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    loader = _method(trees["montecarlo"], "SweepConfig", "from_json_dict")
    for node in ast.walk(loader):
        if isinstance(node, ast.Compare):
            numeric = any(map(is_number, [node.left, *node.comparators]))
            ordered = any(isinstance(op, ordering) for op in node.ops)
            assert not (numeric or ordered), f"montecarlo.py:{node.lineno} compares with a number"


def test_unchecked_profiles_are_built_only_from_enumerated_rows():
    """``NominationProfile._trusted`` skips the row check, so only the engines
    that pass rows of ``verify._choices``'s product may call it.  ``_flat``
    skips it for a single model's nominee array, so only ``NominationProfile.single``
    and ``parse_profile`` may call it, and ``_flat`` calls ``_loop_free_in_range``, the
    check that the array is in ``0..n-1`` and free of ``nominees[u] == u``, before its
    ``__new__``.  No other code makes a profile with ``__new__``, which would skip the
    check as well."""
    allowed = {
        "_trusted": {("verify", "iter_profiles"), ("verify", "_subject_weights")},
        "_flat": {("core", "single"), ("core", "parse_profile")},
        "__new__": {("core", "_trusted"), ("core", "_flat")},
    }
    trees, seen = _trees(), set()
    for name, tree in trees.items():
        owner = {}  # line -> innermost enclosing function
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    owner[getattr(node, "lineno", None)] = func.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in allowed:
                site = (name, owner.get(node.lineno))
                assert site in allowed[node.attr], f"{name}.py:{node.lineno} builds an unchecked profile"
                seen.add((node.attr, site))
    assert seen == {(attr, site) for attr, sites in allowed.items() for site in sites}
    flat = _method(trees["core"], "NominationProfile", "_flat")
    checks = [node.lineno for node in ast.walk(flat) if isinstance(node, ast.Name) and node.id == "_loop_free_in_range"]
    builds = [node.lineno for node in ast.walk(flat) if isinstance(node, ast.Attribute) and node.attr == "__new__"]
    assert checks and builds and min(checks) < min(builds), "_flat builds a profile before it checks the array"


def test_the_flat_nominee_array_is_read_only_in_core():
    """``NominationProfile._nominees``, the private ``array("q")`` of a flat profile, is
    read only in core; other modules read ``single_nominees``, ``row``, ``nominees_of``
    or ``out``, which hand out ints and tuples."""
    for name, tree in _trees().items():
        reads = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "_nominees"
                 or isinstance(node, ast.Constant) and node.value == "_nominees"]
        assert name == "core" or not reads, f"{name}.py:{reads[0]} reads the flat nominee array"
        assert name != "core" or reads


def test_mechanisms_read_no_rows_wholesale():
    """No ``.out`` read in mechanisms: both sampling rules reach nominations only
    through ``nominees_of``, ``nominee_set`` or ``row``, so no winner rule builds a flat
    profile's rows."""
    reads = [node.lineno for node in ast.walk(_trees()["mechanisms"])
             if isinstance(node, ast.Attribute) and node.attr == "out"]
    assert not reads, f"mechanisms.py:{reads[0]} reads a profile's rows"


def test_byte_lanes_are_built_in_core_and_read_only_by_the_score_rule():
    """``NominationProfile.nominee_lanes`` is defined in core and read only by
    ``mechanisms.multiset_winner``.  ``fixed_sample_winner`` reaches no function that
    reads them, and a fresh profile it scores builds none."""
    trees = _trees()
    defined = {(name, node.lineno) for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "nominee_lanes"}
    assert [name for name, _ in defined] == ["core"]
    readers = set()
    for name, tree in trees.items():
        owner = _innermost_functions(tree)
        readers |= {(name, owner.get(id(node))) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "nominee_lanes"
                    or isinstance(node, ast.Constant) and node.value == "nominee_lanes"}
    assert readers == {("mechanisms", "multiset_winner")}
    functions = {f.name: f for f in trees["mechanisms"].body if isinstance(f, ast.FunctionDef)}
    reached, todo = set(), ["fixed_sample_winner"]
    while todo:
        reached.add(name := todo.pop())
        todo += [node.func.id for node in ast.walk(functions[name]) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id in functions.keys() - reached]
    assert "multiset_winner" not in reached and "_counted_winner" in reached
    profile = NominationProfile.multi(3, [(1, 2), (2,), ()])
    assert fixed_sample_winner(profile, [0]) == 1 and "nominee_lanes" not in vars(profile)


def test_only_the_asker_builds_refutation_witnesses():
    """The refutation driver's no-winner exit and every witness it returns are
    built by ``verify._Asker``, which owns the oracle's answers; the decision
    tree (``refute_two_additive`` and ``_corner``) only branches."""
    tree = _trees()["verify"]

    def witness_builds(node):
        return [n.lineno for n in ast.walk(node)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "Witness"]

    functions = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    for name in ("refute_two_additive", "_corner"):
        assert not witness_builds(functions[name]), f"verify.{name} builds a Witness"
    asker = [n for n in functions["_Asker"].body if isinstance(n, ast.FunctionDef)]
    assert [m.name for m in asker if witness_builds(m)] == ["_witness"]
    none_checks = [n.lineno for n in ast.walk(functions["_corner"]) if isinstance(n, ast.Compare)
                   and any(isinstance(c, ast.Constant) and c.value is None for c in n.comparators)]
    assert not none_checks, f"verify.py:{none_checks[0]} checks for no winner outside the asker"
    # of the functions and classes, only the asker (which raises it) and validate_witness name the kind
    owners = {name for name, node in functions.items()
              if any(isinstance(n, ast.Constant) and n.value == "no_winner_violation" for n in ast.walk(node))}
    assert owners == {"_Asker", "validate_witness"}


def test_verify_asks_every_subject_through_subject_weights():
    """Only ``verify._subject_weights`` turns a spec or an oracle into weights,
    so the names it evaluates with occur nowhere else in ``verify``."""
    tree = _trees()["verify"]
    evaluator = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_subject_weights")
    inside = {id(node) for node in ast.walk(evaluator)}
    names = {"checked_sample_size", "sample_space", "winner_weights", "KINDS", "WinnerDistribution"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            assert id(node) in inside, f"verify.py:{node.lineno} uses {node.id} outside _subject_weights"
    imported = {name for _, taken in _package_imports(tree) for name in taken}
    assert "exact_distribution" not in imported


def _innermost_functions(tree):
    """node id -> name of its innermost enclosing function (ast.walk visits outer functions first)."""
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            owner.update((id(node), func.name) for node in ast.walk(func))
    return owner


def test_resolve_k_is_the_one_reader_of_sample_size():
    """Whether a spec draws, and how many times, is ``mechanisms.resolve_k``'s answer
    alone: no other code reads a ``KINDS`` row's ``sample_size``, and no second test
    of "randomized" (``is_randomized``) exists in ``src/``."""
    readers = set()
    for name, tree in _trees().items():
        owner = _innermost_functions(tree)
        readers |= {(name, owner.get(id(node))) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "sample_size"}
    assert readers == {("mechanisms", "resolve_k")}
    assert not [path.name for path in SOURCES if "is_randomized" in path.read_text(encoding="utf-8")]


def test_one_lane_kernel_and_one_monte_carlo_draw_path():
    """The splitmix multipliers are read by the scalar mix and one lane function
    only, the lane word slice by that lane function alone, and Monte Carlo draws
    its trials through ``trial_draws``, never a ``DrawStream`` of its own."""
    readers = {"_MUL1": set(), "_MUL2": set(), "_LOW_WORDS": set()}
    for name, tree in _trees().items():
        owner = _innermost_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in readers and isinstance(node.ctx, ast.Load):
                readers[node.id].add((name, owner.get(id(node))))
    kernel = ("mechanisms", "_lane_draws")
    mixes = {("mechanisms", "_mix64"), kernel}
    assert readers == {"_MUL1": mixes, "_MUL2": mixes, "_LOW_WORDS": {kernel}}
    montecarlo = _trees()["montecarlo"]
    assert not [n.lineno for n in ast.walk(montecarlo) if isinstance(n, ast.Name) and n.id == "DrawStream"]
    assert "trial_draws" in {name for _, taken in _package_imports(montecarlo) for name in taken}


def test_trial_draws_owns_the_draw_ceiling_and_the_trial_streams():
    """``mechanisms.trial_draws`` holds the one check of the draws per trial and,
    outside the generators, the only ``DrawStream`` calls: no second path takes
    a spec's draws past the ceiling."""
    assert sum(path.read_text(encoding="utf-8").count("draws per trial") for path in SOURCES) == 1
    ceilings, streams = set(), set()
    for name, tree in _trees().items():
        owner = _innermost_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value == "draws per trial":
                ceilings.add((name, owner.get(id(node))))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "DrawStream":
                streams.add(name if name == "generators" else (name, owner.get(id(node))))
    assert ceilings == {("mechanisms", "trial_draws")}
    assert streams == {"generators", ("mechanisms", "trial_draws")}


def test_only_space_computes_strides_and_profiles_by_index():
    """``verify._space`` owns the profile space: only it refuses one above the
    ceiling, by building ``ProfileSpaceTooLarge``, takes ``math.prod`` over the
    choice counts, and builds a profile from an index; the engines read its
    strides and its ``profile(i)``.  Only ``_choices``, which it and
    ``iter_profiles`` read, lists a vertex's out-sets by ``itertools.combinations``."""
    tree = _trees()["verify"]
    owner = {id(node): top.name for top in tree.body if isinstance(top, (ast.FunctionDef, ast.ClassDef))
             for node in ast.walk(top)}  # node -> enclosing top-level function or class
    prods = {owner.get(id(node)) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "prod"}
    indexed = {owner.get(id(node)) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "NominationProfile"
               and any(isinstance(op, ast.FloorDiv) for op in ast.walk(node))}
    refusals = {owner.get(id(node)) for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ProfileSpaceTooLarge"}
    combos = {owner.get(id(node)) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "combinations"}
    assert prods == {"_space"}
    assert indexed == {"_space"}
    assert refusals == {"_space"}
    assert combos == {"_choices"}


def test_one_kernel_scores_every_sample():
    """``exact.winner_weights`` is the one sample scorer: every popcount in
    ``src/`` is inside it, and only ``exact.exact_distribution`` and
    ``verify._subject_weights`` call it or ``sample_space``, whose samples it
    alone reads."""
    trees = _trees()
    kernel = next(f for f in trees["exact"].body if isinstance(f, ast.FunctionDef) and f.name == "winner_weights")
    inside = {id(node) for node in ast.walk(kernel)}
    callers = {"winner_weights": set(), "sample_space": set()}
    for name, tree in trees.items():
        owner = {id(node): top.name for top in tree.body if isinstance(top, ast.FunctionDef) for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "bit_count":
                assert id(node) in inside, f"{name}.py:{node.lineno} counts bits outside the kernel"
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                callers[node.func.id].add((name, owner.get(id(node))))
    sites = {("exact", "exact_distribution"), ("verify", "_subject_weights")}
    assert callers == {"winner_weights": sites, "sample_space": sites}


def test_only_normalize_out_tests_a_row_length_against_the_model():
    """``core._normalize_out`` is the one row check: no other code in ``core``
    tests a length against the ``out_degrees`` range (``single()`` checks its
    flat nominee list by type, range and self-nomination only)."""
    tree = _trees()["core"]
    owner = _innermost_functions(tree)

    def a_degrees_range(node):
        return (isinstance(node, ast.Name) and node.id == "degrees") or (
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "out_degrees"
        )

    tests = {owner.get(id(node)) for node in ast.walk(tree) if isinstance(node, ast.Compare)
             and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
             and any(map(a_degrees_range, node.comparators))}
    assert tests == {"_normalize_out"}


def test_the_cli_evaluates_exactly_once_and_notes_a_clamp_where_it_reports():
    """In ``cli``, ``_exact`` is the one call of ``exact_distribution`` and of
    ``expected_winner_degree``, which ``run --exact`` and ``exact`` share.  A clamped k
    is noted only by ``_report``, which writes every ``run`` and ``exact`` result, by
    ``_verify``, which runs both verify engines on a subject, and by ``cmd_sweep``."""
    tree = _trees()["cli"]
    owner, callers = _innermost_functions(tree), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            callers.setdefault(node.func.id, []).append(owner.get(id(node)))
    assert callers["exact_distribution"] == callers["expected_winner_degree"] == ["_exact"]
    assert sorted(callers["_note_clamped_k"]) == ["_report", "_verify", "cmd_sweep"]


def test_every_imported_name_is_used():
    """No dead imports in ``src/``: each name a module imports is read in it or
    listed in its ``__all__``.  The one exception is ``exact``'s ``noqa: F401``
    line, whose unused names are the guarantee formulas callers read from there."""
    unused = {}
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(text), text.splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = {node.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                    and any(getattr(target, "id", None) == "__all__" for target in stmt.targets)
                    for node in ast.walk(stmt.value) if isinstance(node, ast.Constant)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = {alias.asname or alias.name.split(".")[0] for alias in node.names} - {"*"}
                dead = bound - read - exported
                if dead:
                    assert "noqa: F401" in lines[node.lineno - 1], f"{path.name}:{node.lineno} imports unused {dead}"
                    unused[path.stem] = dead
    assert unused == {"exact": {"rks_gap_lower_bound", "sks_gap_upper_bound", "sks_sample_size"}}


def _loaded_names(tree):
    """Every name a module reads: loaded names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_is_read_or_is_a_test_oracle():
    """Each ``__all__`` name is read by some ``src/`` code (its own module
    counts) or a ``bench/*.py`` file, apart from three oracles only the tests
    call.  A new public name that nothing reads has to be added here on purpose."""
    exported, read = set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        code = [stmt for stmt in tree.body if not (isinstance(stmt, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in stmt.targets))]
        read.update(name for stmt in code for name in _loaded_names(stmt))
        if path.stem in MODULES:
            exported.update(getattr(impsel, path.stem).__all__)
    for path in (Path(__file__).parents[1] / "bench").glob("*.py"):
        read.update(_loaded_names(ast.parse(path.read_text(encoding="utf-8"))))
    assert exported - read == {"pr_top_in_nominated", "check_sample_constant", "sample_mechanism_oracle"}

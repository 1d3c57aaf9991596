"""Package surface: everything advertised at the top level resolves."""

import ast
import contextlib
import dataclasses
import io
import sys
from pathlib import Path

import pytest

import hschain


def test_all_exports_resolve():
    for name in hschain.__all__:
        assert getattr(hschain, name) is not None


# Every name the package exports, so that adding or removing one is a
# deliberate edit of this list.
PUBLIC_NAMES = [
    "ANTIFERRO",
    "CapacityError",
    "ChainSpec",
    "CharFnSeries",
    "ConvergenceError",
    "ConvergenceReport",
    "CrosscheckReport",
    "DenseOperator",
    "DensityTable",
    "DispersionTable",
    "FAMILIES",
    "FERRO",
    "LevelMasses",
    "LevelSupport",
    "OracleReport",
    "SpacingHistogram",
    "SpectrumStats",
    "UnfoldedSpectrum",
    "ValidationError",
    "brute_force_density",
    "build_hamiltonian",
    "chain_sites",
    "charfn_asymptotic",
    "charfn_exact",
    "charfn_from_density",
    "charfn_series",
    "closed_form_moments",
    "composition_density",
    "convergence_report",
    "density_dp",
    "dispersion",
    "empirical_moments",
    "format_rational",
    "jacobi_eigenvalues",
    "ks_distance",
    "level_masses",
    "level_support",
    "normalized_dispersion",
    "normalized_spacings",
    "oracle_compare",
    "run_crosscheck",
    "spacing_distribution",
    "unfold",
]


def test_public_surface_is_pinned():
    assert sorted(hschain.__all__) == PUBLIC_NAMES


def _names_the_package_uses() -> set:
    """Every name that a module of the package other than ``__init__.py``
    imports or loads."""
    used = set()
    for path in Path(hschain.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
    return used


def test_every_export_is_used_by_the_package_itself():
    # a name that only the tests reach belongs in a test helper module
    assert sorted(set(hschain.__all__) - _names_the_package_uses()) == []


# The public methods and properties of every exported class, its own and
# those it inherits from the package, so that an accessor only the tests
# call cannot come back unnoticed.  Dataclass and NamedTuple fields are not
# listed.
PUBLIC_MEMBERS = {
    "CapacityError": [],
    "ChainSpec": ["from_json", "from_json_dict", "n_states", "to_json_dict"],
    "CharFnSeries": [],
    "ConvergenceError": [],
    "ConvergenceReport": [],
    "CrosscheckReport": ["failures"],
    "DenseOperator": ["dimension"],
    "DensityTable": ["cdf_steps", "items", "levels", "to_csv", "to_json_dict"],
    "DispersionTable": ["scaled_total", "total"],
    "LevelMasses": ["cdf_steps", "levels"],
    "LevelSupport": ["levels"],
    "OracleReport": ["multiplicities_match", "to_json_dict"],
    "SpacingHistogram": ["bin_centers"],
    "SpectrumStats": ["from_exact"],
    "UnfoldedSpectrum": ["eta", "underflow"],
    "ValidationError": [],
}


def _field_names(cls) -> list:
    """The fields of a dataclass or a NamedTuple, none for other classes."""
    if dataclasses.is_dataclass(cls):
        return [f.name for f in dataclasses.fields(cls)]
    return list(getattr(cls, "_fields", ()))


def _public_members(cls) -> list:
    fields = set(_field_names(cls))
    return sorted({name for klass in cls.__mro__ if klass.__module__.startswith("hschain")
                   for name in vars(klass) if not name.startswith("_") and name not in fields})


def test_public_members_are_pinned():
    classes = {name: getattr(hschain, name) for name in hschain.__all__}
    assert {name: _public_members(cls) for name, cls in classes.items()
            if isinstance(cls, type)} == PUBLIC_MEMBERS


# The records kept as frozen dataclasses: ChainSpec, because
# dataclasses.replace validates the replaced chain again, and four whose
# __len__, subclass or validation a tuple's own len and fields would
# contradict.  Every other record is a NamedTuple or a plain class: a
# dataclass compiles its generated methods at every import of the package,
# about ten times the cost of defining a NamedTuple.
DATACLASSES = ["ChainSpec", "DispersionTable", "LevelMasses", "LevelSupport", "UnfoldedSpectrum"]

# The immutable result records, as NamedTuples.
NAMED_TUPLES = ["CharFnSeries", "CheckResult", "ConvergenceReport", "CrosscheckReport",
                "DenseOperator", "OracleReport", "SpacingHistogram", "SpectrumStats"]


def _package_classes():
    modules = [module for name, module in sorted(sys.modules.items())
               if name == "hschain" or name.startswith("hschain.")]
    return {name: cls for module in modules for name, cls in vars(module).items()
            if isinstance(cls, type) and cls.__module__ == module.__name__}


def test_only_the_kept_records_are_dataclasses():
    import hschain.cli  # noqa: F401, every module of the package
    classes = _package_classes()
    assert sorted(name for name, cls in classes.items()
                  if dataclasses.is_dataclass(cls)) == DATACLASSES
    assert sorted(name for name, cls in classes.items()
                  if issubclass(cls, tuple) and hasattr(cls, "_fields")
                  and not name.startswith("_")) == NAMED_TUPLES


@pytest.mark.parametrize("name", NAMED_TUPLES)
def test_a_result_record_refuses_a_field_assignment(name):
    cls = _package_classes()[name]
    fields = _field_names(cls)
    record = cls(*range(len(fields)))
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_version_string():
    parts = hschain.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def _readme_quick_start():
    """The README's Python quick start, and the output written under its
    prints: the ``# ...`` comment lines right after each print call."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected, after_print = [], False
    for line in code.splitlines():
        if after_print and line.startswith("# "):
            expected.append(line[2:])
            continue
        after_print = line.startswith("print(")
    return code, expected


def test_readme_quick_start_prints_what_it_shows():
    code, expected = _readme_quick_start()
    assert len(expected) == 3
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    assert printed.getvalue().splitlines() == expected

"""The `frue` package exports are part of the fixed contract: every name
below must stay importable from `frue`, and no key or ciphertext type may
exist twice."""

import ast
import inspect
from pathlib import Path

import frue
from frue import cli, envelope, game, hybrids, matrix, pke, ue

EXPORTS = [
    "DimensionMismatchError", "EpochKey", "EpochMismatchError", "LeakageSets",
    "MatrixZq", "MessageLengthError", "NoValidPlaneError", "ParamSet",
    "PkeCiphertext", "PkeKeyPair", "RngHandle", "SecurityGame", "TokenRandomness",
    "UeCiphertext", "UnknownParamSetError", "UpdateToken", "bits_from_bytes",
    "bound_sides", "bytes_from_bits", "cstar", "decode", "derive_prev_secret",
    "empirical_chain_epochs", "encode", "gen_public_matrix", "gs_setup",
    "hyb_ue_upd", "kstar_op_uni", "load_paramset", "max_certified_epochs",
    "ord_bits", "params_dump", "pke_dec", "pke_enc", "pke_keygen", "pke_setup",
    "random_message_bits", "registered_names", "run_experiment", "sample_chi",
    "sample_token_randomness", "sample_uniform", "select_recovery_plane",
    "signed_rep", "sim_ue_enc", "sim_ue_kg", "sim_ue_tg", "sim_ue_upd",
    "statistical_distance_estimate", "tensor_d", "tstar_op_uni", "ue_dec",
    "ue_enc", "ue_kg", "ue_tg", "ue_upd", "validate_correctness_bound",
]


def test_public_names_are_the_contract():
    names = sorted(n for n, v in vars(frue).items()
                   if not n.startswith("_") and not inspect.ismodule(v))
    assert names == EXPORTS
    assert len(EXPORTS) == 57


def test_one_key_type_and_one_ciphertext_type():
    assert frue.PkeKeyPair is frue.EpochKey
    assert frue.PkeCiphertext is frue.UeCiphertext
    assert frue.ue.EpochKey is frue.pke.EpochKey
    for mod in (ue, envelope, game, cli):
        assert mod.EpochKey is pke.EpochKey, mod.__name__
    for mod in (ue, envelope, game, hybrids):
        assert mod.UeCiphertext is pke.UeCiphertext, mod.__name__


def test_gadget_is_one_function_object_under_every_name():
    # the benchmark tracer wraps one function object under every name bound
    # to it, so frue.ue's names must be frue.matrix's functions themselves
    assert ue.ord_bits is matrix.ord_bits and frue.ord_bits is matrix.ord_bits
    assert ue.tensor_d is matrix.tensor_d and frue.tensor_d is matrix.tensor_d


ROOT = Path(__file__).resolve().parent.parent


def parsed(*dirs: str) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), filename=str(path))
            for d in dirs for path in sorted((ROOT / d).glob("*.py"))}


def read_names(trees) -> set[str]:
    """Every name the trees read: loaded names, attributes and imported names."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, (ast.Attribute, ast.alias)):
                used.add(node.attr if isinstance(node, ast.Attribute) else node.name)
    return used


def assigned_names(stmt) -> list[str]:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_no_dead_private_helpers():
    # every module-level _-prefixed function, class or assigned name in
    # src/frue, and every _-prefixed method of a class defined there, is
    # referenced somewhere in src/frue besides its own definition
    trees = parsed("src/frue")
    used = read_names(trees)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    dead = []
    for path, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                dead += [f"{path.name}:{f.lineno}: {stmt.name}.{f.name}" for f in stmt.body
                         if isinstance(f, functions) and f.name.startswith("_")
                         and not f.name.endswith("__") and f.name not in used]
            if isinstance(stmt, (*functions, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                names = assigned_names(stmt)
            else:
                continue
            dead += [f"{path.name}:{stmt.lineno}: {name}" for name in names
                     if name.startswith("_") and not name.endswith("__")
                     and name not in used]
    assert dead == []


def test_no_unread_public_constants():
    # every public module-level assigned name in src/frue is read somewhere
    # in src/frue, tests/ or perfbench/
    src = parsed("src/frue")
    used = read_names({**src, **parsed("tests", "perfbench")})
    unread = [f"{path.name}:{stmt.lineno}: {name}" for path, tree in src.items()
              for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
              for name in assigned_names(stmt)
              if not name.startswith("_") and name not in used]
    assert unread == []

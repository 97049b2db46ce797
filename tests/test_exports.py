"""The `frue` package exports are part of the fixed contract: every name
below must stay importable from `frue`, and no key or ciphertext type may
exist twice."""

import inspect

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

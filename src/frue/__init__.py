"""Updatable encryption over a Frodo-style LWE public-key scheme.

Ciphertexts can be moved from one epoch key to the next by an untrusted
party holding only a compact update token; tokens derive from the old
secret key and the new public key.  Key updates are backward-leak
uni-directional: the new key plus the token reveals the old key, never the
other way around.
"""

from .matrix import (DimensionMismatchError, MatrixZq, RngHandle,
                     gen_public_matrix, sample_chi, sample_uniform, signed_rep)
from .params import (ParamSet, UnknownParamSetError, bound_sides,
                     empirical_chain_epochs, load_paramset, max_certified_epochs,
                     params_dump, registered_names, validate_correctness_bound)
from .pke import (MessageLengthError, PkeCiphertext, PkeKeyPair,
                  bits_from_bytes, bytes_from_bits, decode, encode, pke_dec,
                  pke_enc, pke_keygen, pke_setup, random_message_bits)
from .ue import (EpochKey, EpochMismatchError, NoValidPlaneError, TokenRandomness,
                 UeCiphertext, UpdateToken, derive_prev_secret, ord_bits,
                 sample_token_randomness, select_recovery_plane, tensor_d, ue_dec,
                 ue_enc, ue_kg, ue_tg, ue_upd)
from .hybrids import (hyb_ue_upd, sim_ue_enc, sim_ue_kg, sim_ue_tg, sim_ue_upd,
                      statistical_distance_estimate)
from .game import (LeakageSets, SecurityGame, cstar, gs_setup, kstar_op_uni,
                   run_experiment, tstar_op_uni)

__version__ = "0.1.0"

"""Device-program tests: MiniC SHA-256/ECDSA/bootloader vs the references.

These run both on the IR interpreter (fast oracle) and — for the key
end-to-end cases — on the compiled ISA simulator.
"""

import pytest

from repro.backend import compile_ir
from repro.crypto import TOY20, build_signed_image, generate_keypair, sign
from repro.crypto.ecdsa import hash_to_int
from repro.crypto.image import (
    BOOT_OK,
    BOOT_REJECT,
    bootloader_source,
    prepare_bootloader_module,
)
from repro.crypto.sha256 import sha256_words
from repro.ir.interp import Interpreter
from repro.isa import Status
from repro.minic import parse_to_ir
from repro.programs import load_source
from repro.toolchain import CompileConfig

SHA_DRIVER = """
u8 msg[256];
u32 msg_len = 0;
u32 digest[8];
u32 run_sha(u32 word_index) {
    sha256(&msg[0], msg_len, &digest[0]);
    return digest[word_index];
}
"""


def sha_module(message: bytes):
    module = parse_to_ir(load_source("sha256") + SHA_DRIVER, "sha")
    module.globals["msg"].initializer = message
    module.globals["msg_len"].initializer = len(message).to_bytes(4, "little")
    return module


class TestDeviceSha256:
    @pytest.mark.parametrize(
        "message",
        [b"", b"abc", b"a" * 55, b"a" * 56, b"a" * 64, b"hello world" * 20],
    )
    def test_matches_reference(self, message):
        module = sha_module(message)
        interp = Interpreter(module)
        expected = sha256_words(message)
        got = [interp.run("run_sha", [i]).value for i in range(8)]
        assert got == expected

    def test_compiled_matches_reference(self):
        message = b"The quick brown fox jumps over the lazy dog"
        program = compile_ir(sha_module(message), config=CompileConfig(scheme="none"))
        expected = sha256_words(message)
        for i in (0, 7):
            assert program.run("run_sha", [i], max_cycles=5_000_000).exit_code == expected[i]


EC_DRIVER = """
u32 run_verify(u32 e, u32 r, u32 s) {
    return ecdsa_verify_v(e, r, s);
}
u32 run_modmul(u32 a, u32 b) { return modmul(a, b, CURVE_P); }
u32 run_modinv(u32 a) { return modinv(a, CURVE_P); }
"""


def ec_module(pub=None):
    module = parse_to_ir(load_source("ecverify") + EC_DRIVER, "ec")
    if pub is not None:
        module.globals["PUB_X"].initializer = pub.x.to_bytes(4, "little")
        module.globals["PUB_Y"].initializer = pub.y.to_bytes(4, "little")
    return module


class TestDeviceEcdsa:
    def test_modmul_matches_python(self):
        interp = Interpreter(ec_module())
        for a, b in [(3, 5), (1048570, 1048570), (999999, 123456)]:
            assert interp.run("run_modmul", [a, b]).value == (a * b) % TOY20.p

    def test_modinv_matches_python(self):
        interp = Interpreter(ec_module())
        for a in (2, 12345, 1048570):
            assert interp.run("run_modinv", [a]).value == pow(a, -1, TOY20.p)

    def test_verify_accepts_valid_signature(self):
        kp = generate_keypair(TOY20)
        message = b"firmware"
        r, s = sign(message, kp)
        e = hash_to_int(message, TOY20)
        interp = Interpreter(ec_module(kp.public))
        v = interp.run("run_verify", [e, r, s]).value
        assert v == r

    def test_verify_rejects_bad_signature(self):
        kp = generate_keypair(TOY20)
        message = b"firmware"
        r, s = sign(message, kp)
        e = hash_to_int(message, TOY20)
        interp = Interpreter(ec_module(kp.public))
        assert interp.run("run_verify", [e, r ^ 1, s]).value != (r ^ 1)
        assert interp.run("run_verify", [e ^ 1, r, s]).value != r

    def test_verify_rejects_degenerate(self):
        kp = generate_keypair(TOY20)
        interp = Interpreter(ec_module(kp.public))
        assert interp.run("run_verify", [5, 0, 7]).value == TOY20.n
        assert interp.run("run_verify", [5, 7, 0]).value == TOY20.n
        assert interp.run("run_verify", [5, TOY20.n, 7]).value == TOY20.n


class TestBootloader:
    @pytest.fixture(scope="class")
    def image(self):
        return build_signed_image(b"FIRMWARE-IMG-1.0" * 8)  # 128 bytes

    def test_interpreter_accepts_valid_image(self, image):
        module = prepare_bootloader_module(image)
        assert Interpreter(module).run("bootloader_main", []).value == BOOT_OK

    def test_interpreter_rejects_tampered_image(self, image):
        evil = bytearray(image.payload)
        evil[5] ^= 0x80
        module = prepare_bootloader_module(image, tamper=bytes(evil))
        assert Interpreter(module).run("bootloader_main", []).value == BOOT_REJECT

    def test_interpreter_rejects_wrong_signature(self, image):
        module = prepare_bootloader_module(image)
        module.globals["SIG_S"].initializer = (
            (image.signature[1] ^ 2).to_bytes(4, "little")
        )
        assert Interpreter(module).run("bootloader_main", []).value == BOOT_REJECT

    @pytest.mark.parametrize("scheme", ["none", "ancode"])
    def test_compiled_bootloader(self, image, scheme):
        from repro.crypto.image import bootloader_params

        program = compile_ir(
            prepare_bootloader_module(image),
            config=CompileConfig(scheme=scheme, params=bootloader_params()),
        )
        result = program.run("bootloader_main", [], max_cycles=30_000_000)
        assert result.status is Status.EXIT
        assert result.exit_code == BOOT_OK

    def test_compiled_bootloader_rejects_tampered(self, image):
        from repro.crypto.image import bootloader_params

        evil = bytearray(image.payload)
        evil[0] ^= 1
        program = compile_ir(
            prepare_bootloader_module(image, tamper=bytes(evil)),
            config=CompileConfig(scheme="ancode", params=bootloader_params()),
        )
        result = program.run("bootloader_main", [], max_cycles=30_000_000)
        assert result.exit_code == BOOT_REJECT

    def test_default_params_reject_20bit_range(self):
        # Guard: the default 16-bit-range encoding must not be silently
        # used for 20-bit values (the comparison would overflow mod 2^32).
        from repro.crypto.image import bootloader_params

        params = bootloader_params()
        assert params.an.functional_bits == 20
        assert params.an.A.bit_length() + 20 <= 32
        assert params.security_level >= 10

    def test_source_concatenation(self):
        source = bootloader_source()
        assert "sha256" in source and "ecdsa_verify_v" in source

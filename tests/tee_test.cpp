// TEE simulation: enclaves, sealing, EPC, attestation, conclaves,
// FS-Protect, and the attested secure channel.
#include <gtest/gtest.h>

#include "tee/attestation.hpp"
#include "tee/conclave.hpp"
#include "tee/enclave.hpp"
#include "tee/epc.hpp"
#include "util/rng.hpp"

namespace bt = bento::tee;
namespace bu = bento::util;
namespace bc = bento::crypto;

TEST(Enclave, MeasurementIsCodeHash) {
  bu::Rng rng(1);
  bt::Platform platform(1, 2, rng);
  bt::Enclave a(platform, bu::to_bytes("code v1"), "a");
  bt::Enclave b(platform, bu::to_bytes("code v1"), "b");
  bt::Enclave c(platform, bu::to_bytes("code v2"), "c");
  EXPECT_EQ(a.measurement(), b.measurement());
  EXPECT_NE(a.measurement(), c.measurement());
  EXPECT_EQ(bt::measurement_hex(a.measurement()).size(), 64u);
}

TEST(Enclave, SealUnsealSameMeasurement) {
  bu::Rng rng(2);
  bt::Platform platform(1, 2, rng);
  bt::Enclave e1(platform, bu::to_bytes("image"), "e1");
  bt::Enclave e2(platform, bu::to_bytes("image"), "e2");  // same image
  auto sealed = e1.seal(bu::to_bytes("secret state"));
  auto opened = e2.unseal(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(bu::to_string(*opened), "secret state");
}

TEST(Enclave, SealBoundToMeasurementAndPlatform) {
  bu::Rng rng(3);
  bt::Platform p1(1, 2, rng), p2(2, 2, rng);
  bt::Enclave same_platform_other_code(p1, bu::to_bytes("other"), "x");
  bt::Enclave other_platform_same_code(p2, bu::to_bytes("image"), "y");
  bt::Enclave original(p1, bu::to_bytes("image"), "o");

  auto sealed = original.seal(bu::to_bytes("secret"));
  EXPECT_FALSE(same_platform_other_code.unseal(sealed).has_value());
  EXPECT_FALSE(other_platform_same_code.unseal(sealed).has_value());
  EXPECT_FALSE(original.unseal(bu::Bytes(5)).has_value());
}

TEST(Epc, AccountsAllocations) {
  bt::EpcManager epc(100 << 20);
  epc.allocate(1, 40 << 20);
  epc.allocate(2, 50 << 20);
  EXPECT_EQ(epc.committed(), std::size_t{90} << 20);
  EXPECT_FALSE(epc.paging());
  epc.free(1);
  EXPECT_EQ(epc.committed(), std::size_t{50} << 20);
  EXPECT_EQ(epc.enclave_count(), 1u);
}

TEST(Epc, PagingBeyondUsable) {
  bt::EpcManager epc(10 << 20);
  epc.allocate(1, 8 << 20);
  EXPECT_FALSE(epc.paging());
  EXPECT_EQ(epc.page_faults(), 0u);
  epc.allocate(2, 8 << 20);
  EXPECT_TRUE(epc.paging());
  EXPECT_EQ(epc.paged_out_bytes(), std::size_t{6} << 20);
  EXPECT_GT(epc.page_faults(), 1000u);  // 6 MiB / 4 KiB
}

TEST(Epc, SingleOversizeAllocationThrows) {
  bt::EpcManager epc(10 << 20);
  EXPECT_THROW(epc.allocate(1, 11 << 20), bt::EpcExhausted);
}

TEST(Epc, ReallocationAdjusts) {
  bt::EpcManager epc(10 << 20);
  epc.allocate(1, 4 << 20);
  epc.allocate(1, 6 << 20);  // grow in place
  EXPECT_EQ(epc.committed(), std::size_t{6} << 20);
  EXPECT_EQ(epc.enclave_count(), 1u);
}

TEST(Attestation, QuoteVerifiesAfterProvisioning) {
  bu::Rng rng(10);
  bt::IntelAttestationService ias(rng, 2);
  bt::Platform platform(77, 2, rng);
  ias.provision(platform);
  bt::Enclave enclave(platform, bu::to_bytes("bento-runtime"), "rt");

  auto quote = bt::generate_quote(enclave, bu::to_bytes("binding"));
  auto report = ias.verify_quote(quote, 123456);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->tcb_status, bt::TcbStatus::UpToDate);
  EXPECT_TRUE(report->verify(ias.public_key()));
  EXPECT_EQ(report->quote.measurement, enclave.measurement());
}

TEST(Attestation, UnprovisionedPlatformRejected) {
  bu::Rng rng(11);
  bt::IntelAttestationService ias(rng, 2);
  bt::Platform rogue(99, 2, rng);  // never provisioned
  bt::Enclave enclave(rogue, bu::to_bytes("code"), "e");
  auto quote = bt::generate_quote(enclave, {});
  EXPECT_FALSE(ias.verify_quote(quote, 0).has_value());
}

TEST(Attestation, ForgedMacRejected) {
  bu::Rng rng(12);
  bt::IntelAttestationService ias(rng, 2);
  bt::Platform platform(5, 2, rng);
  ias.provision(platform);
  bt::Enclave enclave(platform, bu::to_bytes("code"), "e");
  auto quote = bt::generate_quote(enclave, {});
  quote.measurement[0] ^= 1;  // claim a different image
  EXPECT_FALSE(ias.verify_quote(quote, 0).has_value());
}

TEST(Attestation, OutdatedTcbFlagged) {
  bu::Rng rng(13);
  bt::IntelAttestationService ias(rng, 2);
  bt::Platform platform(5, 2, rng);
  ias.provision(platform);
  bt::Enclave enclave(platform, bu::to_bytes("code"), "e");

  ias.advance_tcb(3);  // a new vulnerability patch is published
  auto report = ias.verify_quote(bt::generate_quote(enclave, {}), 0);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->tcb_status, bt::TcbStatus::OutOfDate);

  platform.upgrade_tcb(3);
  report = ias.verify_quote(bt::generate_quote(enclave, {}), 0);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->tcb_status, bt::TcbStatus::UpToDate);
}

TEST(Attestation, ReportSignatureBindsContents) {
  bu::Rng rng(14);
  bt::IntelAttestationService ias(rng, 2);
  bt::Platform platform(5, 2, rng);
  ias.provision(platform);
  bt::Enclave enclave(platform, bu::to_bytes("code"), "e");
  auto report = *ias.verify_quote(bt::generate_quote(enclave, {}), 42);
  report.tcb_status = bt::TcbStatus::OutOfDate;  // tamper
  EXPECT_FALSE(report.verify(ias.public_key()));
}

TEST(Attestation, QuoteSerializeRoundTrip) {
  bu::Rng rng(15);
  bt::Platform platform(123, 7, rng);
  bt::Enclave enclave(platform, bu::to_bytes("img"), "e");
  auto q = bt::generate_quote(enclave, bu::to_bytes("rd"));
  auto back = bt::Quote::deserialize(q.serialize());
  EXPECT_EQ(back.measurement, q.measurement);
  EXPECT_EQ(back.report_data, q.report_data);
  EXPECT_EQ(back.platform_id, 123u);
  EXPECT_EQ(back.tcb_version, 7u);
  EXPECT_EQ(back.mac, q.mac);
}

TEST(FsProtect, WritesAreEncrypted) {
  bu::Rng rng(20);
  bt::FsProtect fs(rng);
  const std::string secret = "the cached webpage contents";
  fs.write("page.html", bu::to_bytes(secret));

  // Operator view: ciphertext differs from plaintext and leaks no substring.
  const bu::Bytes& stored = fs.ciphertext_of("page.html");
  const std::string stored_str = bu::to_string(stored);
  EXPECT_EQ(stored.size(), secret.size() + bento::crypto::kAeadTagLen);
  EXPECT_EQ(stored_str.find("webpage"), std::string::npos);

  auto back = fs.read("page.html");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(bu::to_string(*back), secret);
}

TEST(FsProtect, TamperDetected) {
  bu::Rng rng(21);
  bt::FsProtect fs(rng);
  fs.write("f", bu::to_bytes("data"));
  fs.corrupt("f", 1);
  EXPECT_FALSE(fs.read("f").has_value());
}

TEST(FsProtect, EphemeralKeysDiffer) {
  bu::Rng rng(22);
  bt::FsProtect fs1(rng), fs2(rng);
  fs1.write("f", bu::to_bytes("same data"));
  fs2.write("f", bu::to_bytes("same data"));
  EXPECT_NE(fs1.ciphertext_of("f"), fs2.ciphertext_of("f"));
}

TEST(FsProtect, OverwriteListRemoveAccounting) {
  bu::Rng rng(23);
  bt::FsProtect fs(rng);
  fs.write("a", bu::Bytes(100, 1));
  fs.write("b", bu::Bytes(50, 2));
  EXPECT_EQ(fs.total_plaintext_bytes(), 150u);
  fs.write("a", bu::Bytes(10, 3));
  EXPECT_EQ(fs.total_plaintext_bytes(), 60u);
  EXPECT_EQ(fs.list().size(), 2u);
  EXPECT_TRUE(fs.remove("a"));
  EXPECT_FALSE(fs.remove("a"));
  EXPECT_EQ(fs.total_plaintext_bytes(), 50u);
  EXPECT_FALSE(fs.read("a").has_value());
}

TEST(SecureChannel, AttestedHandshakeAndTraffic) {
  bu::Rng rng(30);
  bt::Platform platform(1, 2, rng);
  bt::Enclave enclave(platform, bu::to_bytes("loader"), "loader");

  bc::DhKeyPair client_eph;
  auto hello = bt::SecureChannel::client_hello(client_eph, rng);
  bt::SecureChannel::Accept accept;
  auto server = bt::SecureChannel::server_accept(hello, enclave, rng, &accept);
  auto client = bt::SecureChannel::client_finish(client_eph, accept,
                                                 enclave.measurement());
  ASSERT_TRUE(client.has_value());

  // Bidirectional sealed traffic.
  auto c1 = client->seal(bu::to_bytes("function upload"));
  auto at_server = server.open(c1);
  ASSERT_TRUE(at_server.has_value());
  EXPECT_EQ(bu::to_string(*at_server), "function upload");

  auto s1 = server.seal(bu::to_bytes("tokens"));
  auto at_client = client->open(s1);
  ASSERT_TRUE(at_client.has_value());
  EXPECT_EQ(bu::to_string(*at_client), "tokens");
}

// Pins the channel keys of one seeded handshake through the first sealed
// record in each direction (ChaCha20-Poly1305 under the derived key, nonce
// from sequence number 0): the HKDF code must leave both exactly as they are.
TEST(SecureChannel, GoldenDerivedKeys) {
  bu::Rng rng(1601);
  bt::Platform platform(1, 2, rng);
  bt::Enclave enclave(platform, bu::to_bytes("loader"), "loader");

  bc::DhKeyPair client_eph;
  auto hello = bt::SecureChannel::client_hello(client_eph, rng);
  bt::SecureChannel::Accept accept;
  auto server = bt::SecureChannel::server_accept(hello, enclave, rng, &accept);
  auto client = bt::SecureChannel::client_finish(client_eph, accept, enclave.measurement());
  ASSERT_TRUE(client.has_value());

  EXPECT_EQ(bu::to_hex(hello.to_bytes()), "770ab58ed0cda4fb9134c96d015025c4");
  EXPECT_EQ(bu::to_hex(bc::gp_to_bytes(accept.dh_public)), "12a638221b51cc17b9e7f514eb58e09c");
  EXPECT_EQ(bu::to_hex(client->seal(bu::to_bytes("client to server"))),
            "c9706b2a616fc7c5e66e3318426d504ef935e99b3889813367d6c202517b674f");
  EXPECT_EQ(bu::to_hex(server.seal(bu::to_bytes("server to client"))),
            "a771efd65896eec6578db6b7c0f1b199c1997bd8e0ff4c176eaab5d13a7d2a2f");
}

TEST(SecureChannel, WrongMeasurementRejected) {
  bu::Rng rng(31);
  bt::Platform platform(1, 2, rng);
  bt::Enclave real(platform, bu::to_bytes("trusted loader"), "real");
  bt::Enclave evil(platform, bu::to_bytes("evil loader"), "evil");

  bc::DhKeyPair client_eph;
  auto hello = bt::SecureChannel::client_hello(client_eph, rng);
  bt::SecureChannel::Accept accept;
  bt::SecureChannel::server_accept(hello, evil, rng, &accept);
  EXPECT_FALSE(bt::SecureChannel::client_finish(client_eph, accept,
                                                real.measurement())
                   .has_value());
}

TEST(SecureChannel, ReplayRejected) {
  bu::Rng rng(32);
  bt::Platform platform(1, 2, rng);
  bt::Enclave enclave(platform, bu::to_bytes("loader"), "l");
  bc::DhKeyPair eph;
  auto hello = bt::SecureChannel::client_hello(eph, rng);
  bt::SecureChannel::Accept accept;
  auto server = bt::SecureChannel::server_accept(hello, enclave, rng, &accept);
  auto client = bt::SecureChannel::client_finish(eph, accept, enclave.measurement());
  ASSERT_TRUE(client.has_value());

  auto msg = client->seal(bu::to_bytes("m1"));
  ASSERT_TRUE(server.open(msg).has_value());
  EXPECT_FALSE(server.open(msg).has_value());  // replay: wrong sequence
}

TEST(SecureChannel, TranscriptSubstitutionRejected) {
  // A MITM replacing the server DH public invalidates the quote binding.
  bu::Rng rng(33);
  bt::Platform platform(1, 2, rng);
  bt::Enclave enclave(platform, bu::to_bytes("loader"), "l");
  bc::DhKeyPair eph;
  auto hello = bt::SecureChannel::client_hello(eph, rng);
  bt::SecureChannel::Accept accept;
  bt::SecureChannel::server_accept(hello, enclave, rng, &accept);
  auto mitm = bc::DhKeyPair::generate(rng);
  accept.dh_public = mitm.public_value;
  EXPECT_FALSE(
      bt::SecureChannel::client_finish(eph, accept, enclave.measurement()).has_value());
}

TEST(Conclave, RegistersEpcAndFsProtect) {
  bu::Rng rng(40);
  bt::Platform platform(1, 2, rng);
  bt::EpcManager epc;
  {
    bt::Conclave conclave(platform, epc, bu::to_bytes("runtime"), "c1", rng);
    EXPECT_EQ(epc.enclave_count(), 1u);
    EXPECT_EQ(epc.committed(), bt::Conclave::kBaselineOverheadBytes);
    conclave.set_memory_bytes(20 << 20);
    EXPECT_EQ(epc.committed(), (std::size_t{20} << 20) +
                                   bt::Conclave::kBaselineOverheadBytes);
    conclave.fs().write("x", bu::to_bytes("inside"));
    EXPECT_TRUE(conclave.fs().read("x").has_value());
  }
  EXPECT_EQ(epc.enclave_count(), 0u);  // destructor releases EPC
}

TEST(Conclave, ManyConclavesTriggerPaging) {
  // Paper §7.3: Bento+Browser ~16-20MB + 7.3MB conclave overhead; the 93MiB
  // EPC fits a handful before paging starts.
  bu::Rng rng(41);
  bt::Platform platform(1, 2, rng);
  bt::EpcManager epc;  // 93 MiB usable
  std::vector<std::unique_ptr<bt::Conclave>> conclaves;
  int fit_without_paging = 0;
  for (int i = 0; i < 10; ++i) {
    auto c = std::make_unique<bt::Conclave>(platform, epc,
                                            bu::to_bytes("runtime"), "c", rng);
    c->set_memory_bytes(18 << 20);  // Browser-sized function
    conclaves.push_back(std::move(c));
    if (!epc.paging()) fit_without_paging = i + 1;
  }
  EXPECT_GE(fit_without_paging, 3);
  EXPECT_LE(fit_without_paging, 4);  // (18M + 7.3M) * 4 > 93MiB
  EXPECT_TRUE(epc.paging());
}

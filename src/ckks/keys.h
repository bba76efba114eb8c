/**
 * @file
 * Key material and the key generator.
 *
 * Switching keys follow hybrid key switching with dnum digits [37]: for
 * each digit j, swk_j = (b_j, a_j) over the extended basis Q u P with
 * b_j = -a_j * s + e_j + F_j * s_src, where F_j == P (mod q_i) for q-limbs
 * inside digit j and 0 elsewhere. Relinearisation uses s_src = s^2,
 * rotation keys use s_src = tau_k(s).
 *
 * Sampling is deterministic from the generator's seed -- reproducible
 * research keys, not production randomness (see README).
 */
#pragma once

#include <map>
#include <vector>

#include "ckks/context.h"
#include "common/rng.h"
#include "poly/ring.h"

namespace cross::ckks {

/** Ternary secret over the full Q u P basis, eval domain. */
struct SecretKey
{
    poly::RnsPoly s;
};

/** Encryption key (b, a) with b = -a*s + e over the L q-limbs. */
struct PublicKey
{
    poly::RnsPoly b;
    poly::RnsPoly a;
};

/**
 * Hybrid switching key: one (b_j, a_j) pair per digit, full basis.
 *
 * Building a key from digits mints a process-unique id(); copies and
 * assignments carry it along, and the digits are read-only, so equal
 * ids always name equal key material. The KeySwitchCache keys its
 * resident precomps by this id. A default-constructed key has id 0
 * and no digits.
 */
class SwitchKey
{
  public:
    using Digit = std::pair<poly::RnsPoly, poly::RnsPoly>;

    SwitchKey() = default;
    explicit SwitchKey(std::vector<Digit> digits);

    const std::vector<Digit> &digits() const { return digits_; }
    u64 id() const { return id_; }

  private:
    std::vector<Digit> digits_;
    u64 id_ = 0;
};

/** Generates secret/public/relinearisation/rotation keys. */
class KeyGenerator
{
  public:
    KeyGenerator(const CkksContext &ctx, u64 seed = 0x5eedULL);

    const SecretKey &secretKey() const { return sk_; }
    PublicKey publicKey();

    /** Relinearisation key (targets s^2). */
    SwitchKey relinKey();

    /** Switching key from an arbitrary source secret to s. */
    SwitchKey switchKeyFor(const poly::RnsPoly &s_src);

    /** Rotation key for Galois element @p auto_idx (targets tau_k(s)). */
    SwitchKey rotationKey(u32 auto_idx);

  private:
    const CkksContext &ctx_;
    Rng rng_;
    SecretKey sk_;
};

} // namespace cross::ckks

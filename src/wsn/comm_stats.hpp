// Communication accounting.
//
// Figure 5 of the paper plots total communication cost in *bytes*; the
// introduction argues the *number of messages* matters even more in
// duty-cycled networks. CommStats therefore tracks both, per MessageKind.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "wsn/message.hpp"

namespace cdpf::wsn {

class CommStats {
 public:
  void record(MessageKind kind, std::size_t payload_bytes, std::size_t receivers) {
    auto& bucket = buckets_[static_cast<std::size_t>(kind)];
    bucket.messages += 1;
    bucket.bytes += payload_bytes;
    bucket.receptions += receivers;
  }

  std::size_t messages(MessageKind kind) const {
    return buckets_[static_cast<std::size_t>(kind)].messages;
  }
  std::size_t bytes(MessageKind kind) const {
    return buckets_[static_cast<std::size_t>(kind)].bytes;
  }
  std::size_t receptions(MessageKind kind) const {
    return buckets_[static_cast<std::size_t>(kind)].receptions;
  }

  std::size_t total_messages() const {
    std::size_t t = 0;
    for (const auto& b : buckets_) {
      t += b.messages;
    }
    return t;
  }

  std::size_t total_bytes() const {
    std::size_t t = 0;
    for (const auto& b : buckets_) {
      t += b.bytes;
    }
    return t;
  }

  std::size_t total_receptions() const {
    std::size_t t = 0;
    for (const auto& b : buckets_) {
      t += b.receptions;
    }
    return t;
  }

  /// One-line human-readable summary ("particle: 12 msg / 192 B, ...").
  std::string summary() const;

 private:
  struct Bucket {
    std::size_t messages = 0;
    std::size_t bytes = 0;
    std::size_t receptions = 0;  // sum of receiver counts (overhearing load)
  };
  std::array<Bucket, kNumMessageKinds> buckets_{};
};

}  // namespace cdpf::wsn

#include "le/net/wire.hpp"

namespace le::net {

std::string encode_frame(MsgType type, std::string_view payload) {
  return obs::encode_frame(kWireFormat, static_cast<std::uint16_t>(type),
                           payload);
}

FrameHeader decode_frame_header(
    std::span<const std::uint8_t, kFrameHeaderBytes> bytes) {
  const obs::FrameHeader header = obs::decode_frame_header(bytes, kWireFormat);
  return {static_cast<MsgType>(header.type), header.payload_len,
          header.payload_crc};
}

void check_payload(const FrameHeader& header, std::string_view payload) {
  obs::check_frame_payload(
      kWireFormat,
      {static_cast<std::uint16_t>(header.type), header.payload_len,
       header.payload_crc},
      payload);
}

}  // namespace le::net

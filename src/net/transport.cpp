#include "net/transport.h"

#include <cstdlib>

namespace cookiepicker::net {

bool bodyTruncated(const HttpResponse& response) {
  const auto contentLength = response.headers.get("Content-Length");
  if (!contentLength.has_value()) return false;
  char* end = nullptr;
  const unsigned long long declared =
      std::strtoull(contentLength->c_str(), &end, 10);
  if (end == contentLength->c_str()) return false;
  return declared > response.body.size();
}

std::string fetchFailureReason(const HttpResponse& response) {
  if (response.status == 0) {
    // Transport failure: the injected fault names itself via statusText.
    return response.statusText.empty() ? std::string("transport-error")
                                       : response.statusText;
  }
  if (response.status >= 500) {
    return "http-" + std::to_string(response.status);
  }
  if (bodyTruncated(response)) return "truncated-body";
  return {};
}

util::Pcg32 hostStream(std::uint64_t seed, std::string_view host) {
  return util::Pcg32(seed, /*sequence=*/0x6e657477UL).fork(host);
}

const faults::FaultRule* evaluateFault(const faults::PlanSnapshot& plan,
                                       faults::HostFaultState& state,
                                       const HttpRequest& request,
                                       std::string_view host,
                                       util::Pcg32& rng) {
  faults::Scope scope = faults::Scope::Container;
  switch (request.kind) {
    case RequestKind::Container: scope = faults::Scope::Container; break;
    case RequestKind::Subresource: scope = faults::Scope::Subresource; break;
    case RequestKind::Hidden: scope = faults::Scope::Hidden; break;
  }
  return state.evaluate(plan, host, scope, request.attempt == 0, rng);
}

bool corruptSetCookies(HttpResponse& response, util::Pcg32& rng) {
  const std::vector<std::string> setCookies =
      response.headers.getAll("Set-Cookie");
  if (setCookies.empty()) return false;
  response.headers.remove("Set-Cookie");
  for (const std::string& value : setCookies) {
    response.headers.add("Set-Cookie", faults::corruptHeaderValue(value, rng));
  }
  return true;
}

}  // namespace cookiepicker::net

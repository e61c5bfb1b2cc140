/**
 * @file
 * Minimal vtsimd client: connect over the daemon's Unix-domain socket,
 * send one NDJSON request line, read one reply line. Shared by the
 * vtsim-submit / vtsim-top tools and the service tests (which also use
 * requestRaw to deliver deliberately malformed lines).
 */

#ifndef VTSIM_SERVICE_CLIENT_HH
#define VTSIM_SERVICE_CLIENT_HH

#include <string>

#include "service/json.hh"

namespace vtsim::service {

class Client
{
  public:
    /** Connect to the daemon at @p socket_path; throws
     *  std::runtime_error when nothing is listening. */
    explicit Client(const std::string &socket_path);

    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Send @p request as one line; parse the one-line reply. */
    Json request(const Json &request);

    /**
     * Send @p line verbatim (a newline is appended) and return the
     * raw reply line. An empty return means the daemon closed the
     * connection without replying.
     */
    std::string requestRaw(const std::string &line);

    /** Send @p data without a trailing newline and hang up — the
     *  mid-request-disconnect probe. */
    void sendPartialAndClose(const std::string &data);

  private:
    std::string readLine();

    int fd_ = -1;
    std::string buffer_;
};

} // namespace vtsim::service

#endif // VTSIM_SERVICE_CLIENT_HH

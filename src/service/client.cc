#include "service/client.hh"

#include <cerrno>
#include <stdexcept>

#include <sys/socket.h>
#include <unistd.h>

#include "service/transport.hh"

namespace vtsim::service {

Client::Client(const std::string &socket_path)
    : fd_(connectUnix(socket_path))
{}

Client::~Client()
{
    if (fd_ >= 0)
        ::close(fd_);
}

Json
Client::request(const Json &request)
{
    const std::string reply = requestRaw(request.dump());
    if (reply.empty())
        throw std::runtime_error("vtsimd closed the connection");
    return Json::parse(reply);
}

std::string
Client::requestRaw(const std::string &line)
{
    if (!sendLine(fd_, line))
        throw std::runtime_error("send to vtsimd failed");
    return readLine();
}

void
Client::sendPartialAndClose(const std::string &data)
{
    if (!data.empty())
        (void)::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    ::close(fd_);
    fd_ = -1;
}

std::string
Client::readLine()
{
    char chunk[4096];
    for (;;) {
        const std::size_t nl = buffer_.find('\n');
        if (nl != std::string::npos) {
            std::string line = buffer_.substr(0, nl);
            buffer_.erase(0, nl + 1);
            return line;
        }
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return std::string(); // Daemon hung up.
        buffer_.append(chunk, std::size_t(n));
    }
}

} // namespace vtsim::service

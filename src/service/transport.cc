#include "service/transport.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace vtsim::service {

namespace {

[[noreturn]] void
fail(const std::string &what)
{
    throw TransportError(what + ": " + std::strerror(errno));
}

sockaddr_un
unixAddress(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    // An empty path would silently bind Linux's abstract namespace.
    if (path.empty())
        throw TransportError("empty socket path");
    if (path.size() >= sizeof(addr.sun_path))
        throw TransportError("socket path too long: '" + path + "'");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

} // namespace

int
listenUnix(const std::string &path)
{
    const sockaddr_un addr = unixAddress(path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fail("socket()");
    // A stale socket file from a crashed daemon would fail the bind.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const std::string msg = "bind('" + path + "')";
        ::close(fd);
        fail(msg);
    }
    if (::listen(fd, 64) != 0) {
        const std::string msg = "listen('" + path + "')";
        ::close(fd);
        fail(msg);
    }
    return fd;
}

int
connectUnix(const std::string &path)
{
    const sockaddr_un addr = unixAddress(path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fail("socket()");
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        throw TransportError("cannot connect to vtsimd at '" + path +
                             "': " + std::strerror(err));
    }
    return fd;
}

bool
sendLine(int fd, std::string line)
{
    line.push_back('\n');
    std::size_t off = 0;
    while (off < line.size()) {
        // MSG_NOSIGNAL: a peer that hung up must cost us an EPIPE,
        // not a process-wide SIGPIPE.
        const ssize_t n = ::send(fd, line.data() + off,
                                 line.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        off += std::size_t(n);
    }
    return true;
}

} // namespace vtsim::service

/**
 * @file
 * Response-routing fan-in: lets several caches share one downstream MemSink
 * (the board memory or a shared cache level) and routes read responses back
 * to the issuing client. Requires globally unique memory reqIds, which
 * Cache instances guarantee by embedding an instance id in their request
 * ids.
 */

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/log.h"
#include "mem/memtypes.h"

namespace vortex::mem {

/** N-client fan-in to a single MemSink with reqId-based response routing. */
class MemRouter
{
  public:
    explicit MemRouter(MemSink* down) : down_(down) {}

    /** Create a port whose read responses are delivered to @p handler. */
    MemSink*
    makePort(std::function<void(const MemRsp&)> handler)
    {
        handlers_.push_back(std::move(handler));
        ports_.push_back(
            std::make_unique<Port>(*this, handlers_.size() - 1));
        return ports_.back().get();
    }

    /** Hook this to the downstream's response callback. */
    void
    onRsp(const MemRsp& rsp)
    {
        // Board memory answers in request order, so the match is almost
        // always the oldest route.
        for (auto it = routes_.begin(); it != routes_.end(); ++it) {
            if (it->reqId == rsp.reqId) {
                const size_t port = it->port;
                routes_.erase(it);
                handlers_[port](rsp);
                return;
            }
        }
        panic("MemRouter: unrouted response ", rsp.reqId);
    }

    bool idle() const { return routes_.empty(); }

  private:
    class Port : public MemSink
    {
      public:
        Port(MemRouter& router, size_t index)
            : router_(router), index_(index)
        {
        }

        bool reqReady() const override { return router_.down_->reqReady(); }

        void
        reqPush(const MemReq& req) override
        {
            if (!req.write)
                router_.routes_.push_back(Route{req.reqId, index_});
            router_.down_->reqPush(req);
        }

      private:
        MemRouter& router_;
        size_t index_;
    };

    MemSink* down_;
    std::vector<std::unique_ptr<Port>> ports_;
    std::vector<std::function<void(const MemRsp&)>> handlers_;
    /** An in-flight read and the port it returns to. */
    struct Route
    {
        uint64_t reqId;
        size_t port;
    };
    /** In-flight reads, oldest first: a vector that keeps its capacity,
     *  where a node-based map allocated on every read. */
    std::vector<Route> routes_;
};

} // namespace vortex::mem

(** Umbrella namespace for the unbundled-transaction-services library.

    [Untx.Kernel] is the usual entry point: it wires one Transactional
    Component to one Data Component over an in-process transport and
    injects failures; transactions run on its TC, through [Untx.Tc].
    [Untx.Deploy] builds the multi-TC / multi-DC topologies of the
    paper's Section 6.
    Everything else is re-exported for users who assemble their own
    deployments or build custom Data Components. *)

(** {1 Assembled kernels and deployments} *)

module Kernel = Untx_kernel.Kernel
module Deploy = Untx_cloud.Deploy
module Movie = Untx_cloud.Movie
module Two_pc = Untx_cloud.Two_pc
module Transport = Untx_kernel.Transport
module Engine = Untx_kernel.Engine
module Driver = Untx_kernel.Driver

(** {1 The two components} *)

module Tc = Untx_tc.Tc
module Lock_mgr = Untx_tc.Lock_mgr
module Dc = Untx_dc.Dc
module Ablsn = Untx_dc.Ablsn

(** {1 Wire vocabulary} *)

module Op = Untx_msg.Op
module Wire = Untx_msg.Wire

(** {1 Substrates} *)

module Btree = Untx_btree.Btree
module Wal = Untx_wal.Wal
module Page = Untx_storage.Page
module Cache = Untx_storage.Cache
module Disk = Untx_storage.Disk

(** {1 Baseline} *)

module Mono = Untx_baseline.Mono

(** {1 Utilities} *)

module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id
module Instrument = Untx_util.Instrument

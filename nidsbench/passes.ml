(* The untraced passes: closed loop and open loop through the parallel
   engine, and the single-pipeline loop that prices one domain.

   Each pass starts from the capture bytes: [Ingest.decode_file] frames
   the capture, [Ingest.decode_record] turns records into packets lazily
   as the engine's feeder pulls them, and
   [Parallel.process_seq_snapshot] analyses them on [domains] workers.
   Every pass builds a fresh engine, so no verdict-cache state carries
   over from one pass to the next. *)

open Sanids_util
open Sanids_nids
module Ingest = Sanids_ingest.Ingest
module Pcap = Sanids_pcap.Pcap
module Snapshot = Sanids_obs.Snapshot

let now = Unix.gettimeofday

let records pcap =
  match Ingest.decode_file pcap with
  | Ok f -> f
  | Error e -> failwith ("capture framing: " ^ Ingest.error_to_string e)

(* Record index of an alert: its packet's timestamp is the record's
   schedule slot. *)
let index_of ~interval (a : Alert.t) = int_of_float (Float.round (a.Alert.ts /. interval))

type result = {
  seconds : float;
  offered : int;
  processed : int;  (** [sanids_packets_total] — packets the workers finished *)
  payload_bytes : int;  (** [sanids_bytes_total] over processed packets *)
  ingest_errors : int;
  shed : int;
  worker_failures : int;
  latencies : float array;
      (** open loop only: per alerting record, seconds from its due time
          to the callback that delivered its first alert *)
  lateness : float array;
      (** open loop only: per offered record, seconds the generator ran
          behind its due time *)
}

let failed r = r.ingest_errors + r.shed + r.worker_failures

(* Record index -> (template, confirmed) of each alert it raised. *)
type alerts = (int, (string * bool) list) Hashtbl.t

let collect_alerts (tbl : alerts) ~interval alerts =
  List.iter
    (fun (a : Alert.t) ->
      let k = index_of ~interval a in
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k ((a.Alert.template, a.Alert.confirmed) :: prev))
    alerts

let result_of ~seconds ~offered ~ingest_errors ?(latencies = [||]) ?(lateness = [||]) snap =
  {
    seconds;
    offered;
    processed = Snapshot.counter_value snap "sanids_packets_total";
    payload_bytes = Snapshot.counter_value snap "sanids_bytes_total";
    ingest_errors;
    shed = Snapshot.counter_sum snap "sanids_shed_total";
    worker_failures = Snapshot.counter_sum snap "sanids_worker_failures_total";
    latencies;
    lateness;
  }

(* Closed loop: the whole of [cap], one slice of the closed trace,
   offered as fast as the engine takes it, lossless [Block] admission.
   Returns the pass and its alerts. *)
let closed ~domains (w : Gen.t) (cap : Gen.capture) =
  let cfg = Config.with_stream_policy Bqueue.Block w.Gen.cfg in
  let alerts = Hashtbl.create 1024 in
  let errors = ref 0 in
  let t0 = now () in
  let file = records cap.Gen.pcap in
  let packets =
    Seq.filter_map
      (fun r ->
        match Ingest.decode_record ~linktype:file.Pcap.linktype r with
        | Ok p -> Some p
        | Error _ ->
            incr errors;
            None)
      (List.to_seq file.Pcap.records)
  in
  let snap =
    Parallel.process_seq_snapshot ~domains cfg packets
      (collect_alerts alerts ~interval:cap.Gen.interval)
  in
  let seconds = now () -. t0 in
  (result_of ~seconds ~offered:(Array.length cap.Gen.labels) ~ingest_errors:!errors snap, alerts)

(* Sleep to the due time and no further: packets already due when the
   feeder wakes go out back to back, so at rates above the sleep
   granularity the generator releases short bursts instead of burning a
   core spinning against the workers. *)
let wait_until t =
  let d = t -. now () in
  if d > 0.0 then Unix.sleepf d

(* Open loop: the first [count] records of the open capture, record [i]
   due at [t0 + i * interval] regardless of how far the engine has got.
   [t0] is fixed when the engine's feeder pulls the first record, after
   its workers are spawned.  Latency runs from the due time, so a stall
   that makes the generator late is charged to every packet it delays.
   Returns the pass and its alerts. *)
let open_loop ~domains ~count (w : Gen.t) =
  let cap = w.Gen.open_ in
  let interval = cap.Gen.interval in
  let file = records cap.Gen.pcap in
  let recs = Array.of_list file.Pcap.records in
  let count = min count (Array.length recs) in
  let lateness = Array.make count 0.0 in
  let latencies = Array.make count nan in
  let t0 = Atomic.make nan in
  let errors = ref 0 in
  let rec feed i () =
    if i >= count then Seq.Nil
    else begin
      if i = 0 then Atomic.set t0 (now ());
      let due = Atomic.get t0 +. (float_of_int i *. interval) in
      wait_until due;
      lateness.(i) <- now () -. due;
      match Ingest.decode_record ~linktype:file.Pcap.linktype recs.(i) with
      | Ok p -> Seq.Cons (p, feed (i + 1))
      | Error _ ->
          incr errors;
          feed (i + 1) ()
    end
  in
  let alerts = Hashtbl.create 1024 in
  let on_alerts batch =
    let t = now () in
    List.iter
      (fun a ->
        let k = index_of ~interval a in
        if k >= 0 && k < count && Float.is_nan latencies.(k) then
          latencies.(k) <- t -. (Atomic.get t0 +. (float_of_int k *. interval)))
      batch;
    collect_alerts alerts ~interval batch
  in
  let cfg = Config.with_stream_policy Bqueue.Block w.Gen.cfg in
  let start = now () in
  let snap = Parallel.process_seq_snapshot ~domains cfg (feed 0) on_alerts in
  let seconds = now () -. start in
  let latencies =
    Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list latencies))
  in
  (result_of ~seconds ~offered:count ~ingest_errors:!errors ~latencies ~lateness snap, alerts)

(* One pipeline, no engine: [cap] through [Pipeline.process_packet] on
   the calling domain.  The denominator of [parallel.scaling] and of the
   tracing overhead.  Returns the seconds taken and the number of
   packets that alerted. *)
let single (w : Gen.t) (cap : Gen.capture) =
  let t0 = now () in
  let file = records cap.Gen.pcap in
  let nids = Pipeline.create w.Gen.cfg in
  let alerts = ref 0 in
  List.iter
    (fun r ->
      match Ingest.decode_record ~linktype:file.Pcap.linktype r with
      | Ok p -> if Pipeline.process_packet nids p <> [] then incr alerts
      | Error _ -> ())
    file.Pcap.records;
  (now () -. t0, !alerts)

(* [Config.validate] plus [Pipeline.create]: template set, classifier,
   caches, degraded-fallback automaton.  [rounds] samples, each the mean
   over [per_round] set-ups. *)
let setup ~rounds ~per_round (cfg : Config.t) =
  let one () =
    match Config.validate cfg with
    | Ok cfg -> ignore (Sys.opaque_identity (Pipeline.create cfg))
    | Error m -> failwith ("config rejected: " ^ m)
  in
  List.init rounds (fun _ ->
      let t0 = now () in
      for _ = 1 to per_round do
        one ()
      done;
      (now () -. t0) /. float_of_int per_round)

(* Peak resident set of this process ([VmHWM]), in bytes. *)
let peak_rss_bytes () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb *. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "/proc/self/status has no VmHWM"
      in
      scan ())


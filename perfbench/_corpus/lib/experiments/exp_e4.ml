(** E4 — §2 Byzantine agreement: the t < n/3 bound, empirically.

    EIG satisfies agreement + validity for n > 3t under crafted and
    randomized adversaries; the lying adversary breaks validity at n = 3t
    (the impossibility that powers the n ≤ 3k+3t lower bound); Dolev–Strong
    with a PKI survives even there (the n > k+t bullet). *)

module B = Beyond_nash
module E = B.Eig
module DS = B.Dolev_strong

let name = "E4"
let title = "Byzantine agreement: EIG (no signatures) vs Dolev-Strong (PKI)"

let eig_row ~n ~t ~values ~adversary label =
  let r = E.run ?adversary ~n ~t ~values ~default:0 () in
  let honest =
    List.filteri
      (fun i _ -> match adversary with None -> true | Some a -> not (List.mem i a.B.Sync_net.corrupted))
      (Array.to_list values)
  in
  [
    Printf.sprintf "EIG n=%d t=%d" n t;
    label;
    string_of_bool (E.agreement r);
    string_of_bool (E.validity ~honest_values:honest r);
    string_of_int r.B.Sync_net.rounds_run;
    string_of_int r.B.Sync_net.messages_sent;
  ]

let run ?(jobs = 1) () =
  let tab =
    B.Tab.create ~title [ "protocol"; "adversary"; "agreement"; "validity"; "rounds"; "msgs" ]
  in
  B.Tab.add_row tab (eig_row ~n:4 ~t:1 ~values:[| 1; 1; 1; 1 |] ~adversary:None "none");
  B.Tab.add_row tab
    (eig_row ~n:4 ~t:1 ~values:[| 1; 1; 1; 0 |]
       ~adversary:(Some (E.lying_adversary ~n:4 ~corrupted:[ 3 ] ~claim:0))
       "liar (claims 0)");
  B.Tab.add_row tab
    (eig_row ~n:7 ~t:2 ~values:[| 1; 0; 1; 1; 0; 0; 0 |]
       ~adversary:(Some (E.lying_adversary ~n:7 ~corrupted:[ 5; 6 ] ~claim:1))
       "two liars");
  (* The impossibility regime: n = 3t. *)
  B.Tab.add_row tab
    (eig_row ~n:3 ~t:1 ~values:[| 1; 1; 0 |]
       ~adversary:(Some (E.lying_adversary ~n:3 ~corrupted:[ 2 ] ~claim:0))
       "liar at n=3t  <-- validity FAILS");
  (* Randomized sweep. *)
  let rng = B.Prng.create 2024 in
  let violations n t corrupted trials =
    let count = ref 0 in
    for trial = 1 to trials do
      let adv = E.equivocating_adversary ~n ~corrupted rng in
      let values = Array.init n (fun i -> (i + trial) mod 2) in
      let r = E.run ~adversary:adv ~n ~t ~values ~default:0 () in
      let honest =
        List.filteri (fun i _ -> not (List.mem i corrupted)) (Array.to_list values)
      in
      if not (E.agreement r && E.validity ~honest_values:honest r) then incr count
    done;
    !count
  in
  B.Tab.add_row tab
    [ "EIG n=4 t=1"; "100 random equivocators"; Printf.sprintf "%d violations" (violations 4 1 [ 3 ] 100); ""; ""; "" ];
  B.Tab.add_row tab
    [ "EIG n=7 t=2"; "50 random equivocators"; Printf.sprintf "%d violations" (violations 7 2 [ 5; 6 ] 50); ""; ""; "" ];
  (* Dolev-Strong rows. *)
  let rng2 = B.Prng.create 7 in
  let pki3 = B.Hashing.Pki.create rng2 ~n:3 in
  let ds_row ~pki ~n ~t ~adversary label expected_value =
    let r = DS.run ?adversary ~pki ~n ~t ~sender:0 ~value:1 ~default:9 () in
    [
      Printf.sprintf "DS  n=%d t=%d" n t;
      label;
      string_of_bool (DS.agreement r);
      (match expected_value with
      | Some v -> string_of_bool (DS.validity_sender ~sender_value:v r)
      | None -> "n/a (faulty sender)");
      string_of_int r.B.Sync_net.rounds_run;
      string_of_int r.B.Sync_net.messages_sent;
    ]
  in
  B.Tab.add_row tab (ds_row ~pki:pki3 ~n:3 ~t:1 ~adversary:None "none" (Some 1));
  B.Tab.add_row tab
    (ds_row ~pki:pki3 ~n:3 ~t:1
       ~adversary:(Some (DS.equivocating_sender ~pki:pki3 ~sender:0 ~n:3))
       "equivocating sender at n=3t  <-- PKI saves agreement" None);
  (* Phase King: polynomial messages, t < n/4. *)
  let pk_row ~n ~t ~values ~adversary label =
    let module PK = B.Phase_king in
    let r = PK.run ?adversary ~n ~t ~values () in
    let honest =
      List.filteri
        (fun i _ ->
          match adversary with
          | None -> true
          | Some a -> not (List.mem i a.B.Sync_net.corrupted))
        (Array.to_list values)
    in
    [
      Printf.sprintf "PK  n=%d t=%d" n t;
      label;
      string_of_bool (PK.agreement r);
      string_of_bool (PK.validity ~honest_values:honest r);
      string_of_int r.B.Sync_net.rounds_run;
      string_of_int r.B.Sync_net.messages_sent;
    ]
  in
  B.Tab.add_row tab (pk_row ~n:5 ~t:1 ~values:[| 1; 0; 1; 1; 0 |] ~adversary:None "none");
  B.Tab.add_row tab
    (pk_row ~n:5 ~t:1 ~values:[| 1; 1; 1; 1; 0 |]
       ~adversary:(Some (B.Phase_king.lying_adversary ~corrupted:[ 4 ] ~claim:0))
       "liar (t < n/4)");
  (* FloodSet: crash faults only, f+1 rounds, any f < n. *)
  let module FS = B.Floodset in
  let rngf = B.Prng.create 44 in
  let fs_values = [| 2; 1; 3; 2 |] in
  let fs =
    FS.run
      ~adversary:(FS.crash_after ~rng:rngf ~n:4 ~corrupted:[ 0 ] ~values:fs_values ~round:1)
      ~n:4 ~f:1 ~values:fs_values ()
  in
  B.Tab.add_row tab
    [
      "FS  n=4 f=1";
      "crash mid-broadcast";
      string_of_bool (FS.agreement fs);
      string_of_bool (FS.validity ~all_values:(Array.to_list fs_values) fs);
      string_of_int fs.B.Sync_net.rounds_run;
      string_of_int fs.B.Sync_net.messages_sent;
    ];
  B.Tab.print tab;
  (* Fault sweep: instead of the hand-written adversaries above, explore
     seeded random fault schedules per protocol and shrink any violation
     to a minimal counterexample (deterministic for any [jobs]). *)
  Fault_sweep.render ~jobs ~quick:true ~trials:40 ~seed:42 ();
  B.Out.print_endline
    "shape check: EIG correct iff n > 3t (exponential messages); Phase King trades a stronger\n\
     bound (t < n/4) for polynomial messages; crash faults (FloodSet) need only f+1 rounds for\n\
     any f; with signatures (PKI) agreement survives n = 3t, mirroring n > k+t with PKI.\n\
     The fault sweep rediscovers the n = 3t impossibility mechanically: below threshold no\n\
     schedule breaks agreement/validity; at n = 3t the explorer finds and shrinks one.\n"

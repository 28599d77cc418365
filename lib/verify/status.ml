type skip_reason =
  | Community_filter
  | Future_work_regex

type unrec_reason =
  | No_aut_num of Rz_net.Asn.t
  | No_rules
  | Zero_route_as of Rz_net.Asn.t
  | Unrecorded_as_set of string
  | Unrecorded_route_set of string
  | Unrecorded_peering_set of string
  | Unrecorded_filter_set of string

type special =
  | Export_self
  | Import_customer
  | Missing_routes
  | Only_provider_policies
  | Tier1_pair
  | Uphill

type t =
  | Verified
  | Skipped of skip_reason
  | Unrecorded of unrec_reason
  | Relaxed of special
  | Safelisted of special
  | Unverified

let rank = function
  | Verified -> 0
  | Skipped _ -> 1
  | Unrecorded _ -> 2
  | Relaxed _ -> 3
  | Safelisted _ -> 4
  | Unverified -> 5

let class_label = function
  | Verified -> "verified"
  | Skipped _ -> "skipped"
  | Unrecorded _ -> "unrecorded"
  | Relaxed _ -> "relaxed"
  | Safelisted _ -> "safelisted"
  | Unverified -> "unverified"

let skip_to_string = function
  | Community_filter -> "CommunityFilter"
  | Future_work_regex -> "FutureWorkRegex"

let unrec_to_string = function
  | No_aut_num asn -> Printf.sprintf "NoAutNum(%s)" (Rz_net.Asn.to_string asn)
  | No_rules -> "NoRules"
  | Zero_route_as asn -> Printf.sprintf "ZeroRouteAs(%s)" (Rz_net.Asn.to_string asn)
  | Unrecorded_as_set name -> Printf.sprintf "UnrecordedAsSet(%S)" name
  | Unrecorded_route_set name -> Printf.sprintf "UnrecordedRouteSet(%S)" name
  | Unrecorded_peering_set name -> Printf.sprintf "UnrecordedPeeringSet(%S)" name
  | Unrecorded_filter_set name -> Printf.sprintf "UnrecordedFilterSet(%S)" name

let special_to_string = function
  | Export_self -> "SpecExportSelf"
  | Import_customer -> "SpecImportCustomer"
  | Missing_routes -> "SpecMissingRoutes"
  | Only_provider_policies -> "SpecOnlyProviderPolicies"
  | Tier1_pair -> "SpecTier1Pair"
  | Uphill -> "SpecUphill"

let to_string = function
  | Verified -> "Verified"
  | Skipped r -> Printf.sprintf "Skipped(%s)" (skip_to_string r)
  | Unrecorded r -> Printf.sprintf "Unrecorded(%s)" (unrec_to_string r)
  | Relaxed s -> Printf.sprintf "Relaxed(%s)" (special_to_string s)
  | Safelisted s -> Printf.sprintf "Safelisted(%s)" (special_to_string s)
  | Unverified -> "Unverified"
